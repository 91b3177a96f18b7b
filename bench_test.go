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

// adaptSwapDefinition is the adapt-swap workload's shape: a 16x16
// diamond whose whole mesh body a replacement mesh swaps on failure
// (paper §V-B), 514 deployable tasks.
func adaptSwapDefinition() *workflow.Definition {
	spec := workflow.DefaultDiamondSpec(16, 16, false)
	return workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt")
}

// BenchmarkPlanHit measures what a Manager's Submit of an already
// compiled definition costs to find its plan: rendering the definition
// as JSON, the key, and comparing it with the cached plan's. Guarded by
// cmd/benchguard: a hit that decodes or translates the definition again
// fails the ceiling.
func BenchmarkPlanHit(b *testing.B) {
	def := adaptSwapDefinition()
	lookup := func(plans *workflow.PlanCache) *workflow.Plan {
		data, err := def.JSON()
		if err != nil {
			b.Fatal(err)
		}
		p, err := plans.Plan(data)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	var plans workflow.PlanCache
	p := lookup(&plans)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lookup(&plans) != p {
			b.Fatal("an unchanged definition missed its plan")
		}
	}
}

// BenchmarkAgentNew measures one agent incarnation from a compiled
// plan's template: the snapshot of the local solution's top-level
// shell, the engine, and the agent's own functions on the engine's
// overlay. The template is the §V-B destination's, which also binds the
// generated mv_src rewrite. Guarded by cmd/benchguard: the built-in
// function table is shared, so copying it into an engine again fails
// the ceiling.
func BenchmarkAgentNew(b *testing.B) {
	specs, err := adaptSwapDefinition().TranslateAgents()
	if err != nil {
		b.Fatal(err)
	}
	var spec workflow.AgentSpec
	for _, s := range specs {
		if s.Task.Name == workflow.DiamondMergeName {
			spec = s
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if agent.New(agent.Config{Spec: spec}) == nil {
			b.Fatal("no agent")
		}
	}
}

// --- Hot-path benchmarks (message path and reduction engine) ---------------

// BenchmarkReduceDiamondRules measures the agent-side reduction of one
// fully-connected mesh task: the local solution carries the four gw rules,
// receives a PASS message from each of its sources, assembles parameters,
// invokes and forwards. This is the per-message CPU cost of enactment.
func BenchmarkReduceDiamondRules(b *testing.B) {
	tmpl, passes := fanInTask(8)
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

// BenchmarkFirstReduce measures what a new agent incarnation pays for
// its first reduction: the snapshot of its template, a fresh engine
// with the agent's functions on its overlay, the ingest of one PASS
// per source, and a Reduce that assembles the parameters, invokes and
// forwards. BenchmarkReduceDiamondRules reuses one engine and so cannot
// see state an engine grows on its first reductions. Guarded by
// cmd/benchguard: matching state kept per engine instead of borrowed
// per reduction fails the ceiling.
func BenchmarkFirstReduce(b *testing.B) {
	tmpl, passes := fanInTask(8)
	invoke := func([]hocl.Atom) ([]hocl.Atom, error) { return []hocl.Atom{hocl.Str("res")}, nil }
	send := func([]hocl.Atom) ([]hocl.Atom, error) { return nil, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := tmpl.SnapshotSolution()
		engine := hocl.NewEngine()
		engine.Funcs.Register(hoclflow.FnInvoke, invoke)
		engine.Funcs.Register(hoclflow.FnSend, send)
		sol.Add(passes...)
		if err := engine.Reduce(sol); err != nil {
			b.Fatal(err)
		}
	}
}

// fanInTask returns the local solution of a fully-connected mesh task
// with fan sources and destinations, carrying the four gw rules, and
// the PASS message each of its sources sends it.
func fanInTask(fan int) (*hocl.Solution, []hocl.Atom) {
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
	return tmpl, passes
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

// BenchmarkStatusPush measures one status push as an agent makes it
// after a reduction: StatusEncoder.Encode over the stripped atoms of a
// 16-source mesh task mid-workflow (8 inputs received, 8 pending),
// alternating two states so that every call pushes. Guarded by
// cmd/benchguard: the record shares the agent's atoms, frozen, so a push
// costs its shell and headers, never a copy of a nested solution.
func BenchmarkStatusPush(b *testing.B) {
	const fan = 16
	inert := func(atoms ...hocl.Atom) *hocl.Solution {
		sol := hocl.NewSolution(atoms...)
		sol.SetInert(true)
		return sol
	}
	// state is the task after received of its fan PASS messages.
	state := func(received int) []hocl.Atom {
		var src, dst, in []hocl.Atom
		for i := 1; i <= fan; i++ {
			dst = append(dst, hocl.Ident(fmt.Sprintf("D%d", i)))
			if i <= received {
				in = append(in, hocl.Str(fmt.Sprintf("out-S%d", i)))
			} else {
				src = append(src, hocl.Ident(fmt.Sprintf("S%d", i)))
			}
		}
		return []hocl.Atom{
			hocl.Tuple{hoclflow.KeySRC, inert(src...)},
			hocl.Tuple{hoclflow.KeyDST, inert(dst...)},
			hocl.Tuple{hoclflow.KeySRV, hocl.Str("work")},
			hocl.Tuple{hoclflow.KeyIN, inert(in...)},
			hocl.Tuple{hoclflow.KeyRES, inert()},
		}
	}
	states := [2][]hocl.Atom{state(fan / 2), state(fan/2 + 1)}
	enc := hoclflow.StatusEncoder{Task: "N8_3"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if enc.Encode(states[i%2], true) == nil {
			b.Fatal("a changed state did not push")
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
