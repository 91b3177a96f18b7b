package ginflow

// CPU benchmarks: ablations for the design choices called out in
// DESIGN.md and the hot paths cmd/benchguard holds to allocation
// ceilings. None times a modelled sleep. The paper's figures in model
// seconds come from cmd/ginflow-bench, whose points are the committed
// goldens internal/bench/testdata/figures*.json.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/bench"
	"ginflow/internal/cluster"
	"ginflow/internal/core"
	"ginflow/internal/executor"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/journal"
	"ginflow/internal/montage"
	"ginflow/internal/mq"
	"ginflow/internal/obs"
	"ginflow/internal/space"
	"ginflow/internal/workflow"
)

func benchServices() *agent.Registry {
	reg := agent.NewRegistry()
	reg.RegisterNoop(bench.MeshTaskDuration, "split", "work", "merge", "workalt")
	return reg
}

func runDiamondOnce(b *testing.B, h, v int, fully bool, cfg core.Config) *core.Report {
	b.Helper()
	def := workflow.Diamond(workflow.DefaultDiamondSpec(h, v, fully))
	rep, err := core.Run(context.Background(), def, benchServices(), cfg)
	if err != nil {
		b.Fatalf("run: %v", err)
	}
	return rep
}

// benchCluster runs on the virtual clock, so ns/op is CPU, not modelled
// sleep.
func benchCluster(nodes int) cluster.Config {
	return cluster.Config{Nodes: nodes, CoresPerNode: 24, Virtual: true}
}

// BenchmarkFig15MontageGeneration covers Fig. 15's artifacts: building,
// validating and translating the 118-task Montage workflow (the figure
// itself is static workload structure; regenerate the full panels with
// cmd/ginflow-bench -fig 15).
func BenchmarkFig15MontageGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		def := montage.Workflow()
		if err := def.Validate(); err != nil {
			b.Fatal(err)
		}
		if _, err := def.TranslateAgents(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks ----------------------------------------------------

// BenchmarkAblationReduceGetMax measures full reductions of the paper's
// §III-A program at growing multiset sizes.
func BenchmarkAblationReduceGetMax(b *testing.B) {
	for _, size := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("atoms-%d", size), func(b *testing.B) {
			rule := hocl.MustParseRuleBody("max", "replace x, y by x if x >= y", nil)
			atoms := make([]hocl.Atom, size+1)
			for i := 0; i < size; i++ {
				atoms[i] = hocl.Int(i * 13 % size)
			}
			atoms[size] = rule
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol := hocl.NewSolution(atoms...)
				e := hocl.NewEngine()
				if err := e.Reduce(sol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBrokerThroughput compares the raw publish->deliver
// path of the two brokers with latency modelling disabled: the Kafka-like
// broker pays for the persisted log.
func BenchmarkAblationBrokerThroughput(b *testing.B) {
	clock := cluster.NewClock(time.Nanosecond)
	for _, kind := range []mq.Kind{mq.KindQueue, mq.KindLog} {
		b.Run(string(kind), func(b *testing.B) {
			var broker mq.Broker
			switch kind {
			case mq.KindQueue:
				qb := mq.NewQueueBrokerSharded(clock, 1e-9, 0)
				qb.SetServiceTime(0)
				broker = qb
			default:
				lb := mq.NewLogBrokerSharded(clock, 1e-9, 0)
				lb.SetServiceTime(0)
				broker = lb
			}
			sub, err := broker.Subscribe("t")
			if err != nil {
				b.Fatal(err)
			}
			res := []hocl.Atom{hocl.Tuple{hocl.Ident("RES"), hocl.NewSolution(hocl.Int(42))}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := broker.PublishAtoms("t", res); err != nil {
					b.Fatal(err)
				}
				nextOne(b, sub)
			}
		})
	}
}

// BenchmarkAblationPassMode compares the two gw_pass designs (§IV-A): a
// single interpreter applying the global rule versus decentralised
// agents exchanging messages. Both run on the virtual clock, so ns/op is
// CPU; the model_s metric shows the coordination difference.
func BenchmarkAblationPassMode(b *testing.B) {
	for _, mode := range []executor.Kind{executor.KindCentralized, executor.KindSSH} {
		b.Run(string(mode), func(b *testing.B) {
			var model float64
			for i := 0; i < b.N; i++ {
				rep := runDiamondOnce(b, 4, 4, false, core.Config{
					Executor: mode,
					Broker:   mq.KindQueue,
					Cluster:  benchCluster(10),
				})
				model += rep.ExecTime
			}
			b.ReportMetric(model/float64(b.N), "model_s/op")
		})
	}
}

// BenchmarkAblationWireFormat measures the hocl wire codec — the format
// on the socket and in the journal: the cost of encoding and decoding
// one result-transfer molecule.
func BenchmarkAblationWireFormat(b *testing.B) {
	msg := hoclflow.PassMessage("T1", []hocl.Atom{
		hocl.Str("some-result-payload"),
		hocl.List{hocl.Int(1), hocl.Int(2), hocl.Int(3)},
	})
	atoms := []hocl.Atom{msg}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hocl.DecodeAtoms(hocl.EncodeAtoms(atoms)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTranslate measures rule injection (§IV-D "the phase
// of rules injection takes place in a transparent way"): translating a
// 10x10 diamond to agent specs.
func BenchmarkAblationTranslate(b *testing.B) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(10, 10, false))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := def.TranslateAgents(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Hot-path benchmarks (message path and reduction engine) ---------------

// BenchmarkReduceDiamondRules measures the agent-side reduction of one
// fully-connected mesh task: the local solution carries the four gw rules,
// receives a PASS message from each of its sources, assembles parameters,
// invokes and forwards. This is the per-message CPU cost of enactment.
func BenchmarkReduceDiamondRules(b *testing.B) {
	const fan = 8
	srcs := make([]string, fan)
	dsts := make([]string, fan)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("S%d", i+1)
		dsts[i] = fmt.Sprintf("D%d", i+1)
	}
	attrs := hoclflow.TaskAttrs{Name: "W1", Src: srcs, Dst: dsts, Service: "work"}
	tmpl := attrs.LocalSolution(hoclflow.GwSetup(), hoclflow.GwCall(), hoclflow.GwSend(), hoclflow.GwRecv())
	passes := make([]hocl.Atom, fan)
	for i, s := range srcs {
		passes[i] = hoclflow.PassMessage(s, []hocl.Atom{hocl.Str("out-" + s)})
	}
	engine := hocl.NewEngine()
	engine.Funcs.Register(hoclflow.FnInvoke, func([]hocl.Atom) ([]hocl.Atom, error) {
		return []hocl.Atom{hocl.Str("res")}, nil
	})
	engine.Funcs.Register(hoclflow.FnSend, func([]hocl.Atom) ([]hocl.Atom, error) { return nil, nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Snapshot + shared ingest is the agent's instantiation path: a
		// copy-on-write template copy, and wire atoms added by reference.
		sol := tmpl.SnapshotSolution()
		sol.Add(passes...)
		if err := engine.Reduce(sol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeAtoms measures the binary atom codec on the two
// payload shapes the durable session journal appends on its hot path:
// a status record (the VER header plus the full record of a
// mid-workflow task) and an inbox record (a SEQ header plus a PASS
// result). Guarded by cmd/benchguard (internal/bench/baseline.json):
// journaling cost per record must stay flat.
func BenchmarkEncodeAtoms(b *testing.B) {
	status := hoclflow.TaskAttrs{
		Name: "N3_4", Src: []string{"N1_3", "N2_3", "N3_3"},
		Dst: []string{"N3_5", "N4_5"}, Service: "work",
		In: []hocl.Atom{hocl.Str("plate-003")},
	}.SubSolution()
	records := [][]hocl.Atom{
		{hoclflow.VersionMarker("N3_4", 0, 3), hoclflow.TaskTuple("N3_4", status)},
		{hoclflow.SeqMarker("N2_3", 1), hoclflow.PassMessage("N2_3", []hocl.Atom{hocl.Str("out-work")})},
	}
	var sink []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range records {
			sink = hocl.AppendAtoms(sink[:0], rec)
		}
	}
	for _, rec := range records {
		if _, err := hocl.DecodeAtoms(hocl.AppendAtoms(nil, rec)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppendStatus measures the full journaling hot path —
// binary encode + frame + fingerprint + file write — for one status
// record, end to end against a real file. Allocations must stay at
// zero: the writer reuses its encoding and framing buffers.
func BenchmarkJournalAppendStatus(b *testing.B) {
	j, err := journal.Open(journal.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	w, err := j.CreateSession(journal.SessionMeta{ID: 1, Workflow: []byte(`{"tasks":[]}`)})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	status := hoclflow.TaskAttrs{
		Name: "N3_4", Src: []string{"N1_3", "N2_3"}, Dst: []string{"N3_5"},
		Service: "work",
	}.SubSolution()
	payload := []hocl.Atom{hocl.Tuple{hocl.Ident("N3_4"), status}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AppendStatus(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// nextOne pulls the single message the benchmark loop just published.
func nextOne(b *testing.B, sub *mq.Subscription) mq.Message {
	batch, err := sub.Next(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return batch[0]
}

// BenchmarkMessageRoundTrip measures the two wire hops of decentralised
// enactment: a status push (agent -> broker -> space) and a result pass
// (agent -> broker -> peer agent ingest).
func BenchmarkMessageRoundTrip(b *testing.B) {
	clock := cluster.NewClock(time.Nanosecond)
	broker := mq.NewQueueBrokerSharded(clock, 1e-9, 0)
	broker.SetServiceTime(0)
	sp := space.New()
	spaceSub, err := broker.Subscribe(space.DefaultTopic)
	if err != nil {
		b.Fatal(err)
	}
	inbox, err := broker.Subscribe("sa.T2")
	if err != nil {
		b.Fatal(err)
	}
	status := hoclflow.TaskAttrs{Name: "T1", Dst: []string{"T2"}, Service: "work"}.SubSolution()
	statusTuple := hocl.Tuple{hocl.Ident("T1"), status}
	pass := hoclflow.PassMessage("T1", []hocl.Atom{hocl.Str("out-T1"), hocl.List{hocl.Int(1), hocl.Int(2)}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Status push: agent snapshot -> broker -> space apply, all
		// structural — the payload is never rendered or re-parsed.
		if err := broker.PublishAtoms(space.DefaultTopic, []hocl.Atom{hocl.Snapshot(statusTuple)}); err != nil {
			b.Fatal(err)
		}
		sm := nextOne(b, spaceSub)
		if !sp.ApplyMessage(sm) {
			b.Fatal("space rejected payload")
		}
		// Result pass: pre-built molecules -> broker -> peer ingest by
		// reference.
		if err := broker.PublishAtoms("sa.T2", []hocl.Atom{pass}); err != nil {
			b.Fatal(err)
		}
		m := nextOne(b, inbox)
		if len(m.Atoms) != 1 || !hocl.Shareable(m.Atoms[0]) {
			b.Fatalf("bad structural ingest: %v", m.Atoms)
		}
	}
}

// BenchmarkInstrumentedMessageRoundTrip is BenchmarkMessageRoundTrip
// with the broker's metrics wired (SetMetrics before traffic, the
// production shape): per-delivery counter increments, pending-depth
// gauge moves and batch-size observations ride the same two wire hops.
// The ceiling matches the uninstrumented benchmark's — instrumentation
// must cost atomics, never allocations.
func BenchmarkInstrumentedMessageRoundTrip(b *testing.B) {
	clock := cluster.NewClock(time.Nanosecond)
	broker := mq.NewQueueBrokerSharded(clock, 1e-9, 0)
	broker.SetServiceTime(0)
	broker.SetMetrics(obs.NewRegistry())
	sp := space.New()
	spaceSub, err := broker.Subscribe(space.DefaultTopic)
	if err != nil {
		b.Fatal(err)
	}
	inbox, err := broker.Subscribe("sa.T2")
	if err != nil {
		b.Fatal(err)
	}
	status := hoclflow.TaskAttrs{Name: "T1", Dst: []string{"T2"}, Service: "work"}.SubSolution()
	statusTuple := hocl.Tuple{hocl.Ident("T1"), status}
	pass := hoclflow.PassMessage("T1", []hocl.Atom{hocl.Str("out-T1"), hocl.List{hocl.Int(1), hocl.Int(2)}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := broker.PublishAtoms(space.DefaultTopic, []hocl.Atom{hocl.Snapshot(statusTuple)}); err != nil {
			b.Fatal(err)
		}
		sm := nextOne(b, spaceSub)
		if !sp.ApplyMessage(sm) {
			b.Fatal("space rejected payload")
		}
		if err := broker.PublishAtoms("sa.T2", []hocl.Atom{pass}); err != nil {
			b.Fatal(err)
		}
		m := nextOne(b, inbox)
		if len(m.Atoms) != 1 || !hocl.Shareable(m.Atoms[0]) {
			b.Fatalf("bad structural ingest: %v", m.Atoms)
		}
	}
}
