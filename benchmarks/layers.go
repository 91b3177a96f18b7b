package main

// Layer probes: the only file of the benchmark that imports
// ginflow/internal/... . Each probe times a closed loop of calls into one
// layer's public functions on inputs shaped by the workload being traced
// (its definition, fan-in, broker kind, number of parked agents) and
// reports the median batch's ns per call and the mean allocations per
// call. Later PRs cannot edit this directory, so only surfaces ROADMAP
// item C keeps are called (see README "Internal symbols used").

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"ginflow"
	"ginflow/internal/cluster"
	"ginflow/internal/executor"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/journal"
	"ginflow/internal/mq"
	"ginflow/internal/space"
	"ginflow/internal/transport"
)

// shape is what the probes need to know about the workload being traced.
type shape struct {
	def      *ginflow.Workflow
	fanIn    int // PASS messages a typical task ingests
	waiters  int // agents parked on the scheduler while one runs (W)
	broker   ginflow.BrokerKind
	executor ginflow.ExecutorKind
	tmpDir   string
}

// cost is one probe's result.
type cost struct{ ns, allocs float64 }

// measure times batches of operations for about budget. prepare(n)
// builds the inputs of one batch outside the timer and returns the
// function that performs the n operations. The batch size is calibrated
// so one batch lasts at least a tenth of the budget; at least three
// batches run. ns is the median batch's time per operation.
func measure(budget time.Duration, prepare func(n int) func()) cost {
	n := 1
	for {
		run := prepare(n)
		t := time.Now()
		run()
		if d := time.Since(t); d >= budget/10 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	var per []float64
	var ms0, ms1 runtime.MemStats
	ops := 0
	runtime.ReadMemStats(&ms0)
	var prepAllocs uint64
	for start := time.Now(); len(per) < 3 || time.Since(start) < budget; {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		run := prepare(n)
		runtime.ReadMemStats(&b)
		prepAllocs += b.Mallocs - a.Mallocs // allocations of prepare itself
		t := time.Now()
		run()
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(n))
		ops += n
	}
	runtime.ReadMemStats(&ms1)
	return cost{
		ns:     median(per),
		allocs: float64(ms1.Mallocs-ms0.Mallocs-prepAllocs) / float64(ops),
	}
}

// timeOp measures a self-contained operation.
func timeOp(budget time.Duration, op func()) cost {
	return measure(budget, func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				op()
			}
		}
	})
}

// onClock runs fn as a participant of a virtual clock's schedule and
// waits for it: everything that sleeps on, or waits for a delivery from,
// a virtual clock must hold the run token.
func onClock(clock *cluster.Clock, fn func()) {
	done := make(chan struct{})
	clock.Go(func() {
		defer close(done)
		fn()
	})
	<-done
}

// agentRules are the generic rules every decentralised agent carries
// (what TranslateAgents injects); building them parses their text.
func agentRules() []*hocl.Rule {
	return []*hocl.Rule{
		hoclflow.GwSetup(), hoclflow.GwCall(),
		hoclflow.GwSend(), hoclflow.GwRecv(), hoclflow.GwGc(),
	}
}

// probeTask returns a mesh-like task with the shape's fan-in and the
// PASS messages its sources send it.
func probeTask(fan int) (hoclflow.TaskAttrs, []hocl.Atom) {
	srcs := make([]string, fan)
	dsts := make([]string, fan)
	passes := make([]hocl.Atom, fan)
	for i := range srcs {
		srcs[i] = fmt.Sprintf("S%d", i+1)
		dsts[i] = fmt.Sprintf("D%d", i+1)
		passes[i] = hoclflow.PassMessage(srcs[i], []hocl.Atom{hocl.Str("out-" + srcs[i])})
	}
	return hoclflow.TaskAttrs{Name: "W1", Src: srcs, Dst: dsts, Service: "work"}, passes
}

func probeEngine() *hocl.Engine {
	engine := hocl.NewEngine()
	engine.Funcs.Register(hoclflow.FnInvoke, func([]hocl.Atom) ([]hocl.Atom, error) {
		return []hocl.Atom{hocl.Str("res")}, nil
	})
	engine.Funcs.Register(hoclflow.FnSend, func([]hocl.Atom) ([]hocl.Atom, error) { return nil, nil })
	return engine
}

// statusStates returns the stripped status atoms of a task before and
// after its service produced a result: the two states a status push
// alternates between.
func statusStates(name string) (idle, done []hocl.Atom) {
	attrs := hoclflow.TaskAttrs{
		Name: name, Src: []string{"N1_3", "N2_3", "N3_3"},
		Dst: []string{"N3_5", "N4_5"}, Service: "work",
		In: []hocl.Atom{hocl.Str("plate-003")},
	}
	idle = attrs.SubSolution().Atoms()
	done = append([]hocl.Atom(nil), idle[:len(idle)-1]...)
	done = append(done, hocl.Tuple{hocl.Ident("RES"), hocl.NewSolution(hocl.Str("out-work"))})
	return idle, done
}

// runProbes runs every layer probe for about budget each and returns
// their metrics by name. span brackets each probe so the trace shows
// where the probing time went.
func runProbes(sh shape, budget time.Duration, span func(name string) func()) (map[string]metric, error) {
	out := map[string]metric{}
	set := func(prefix, unit string, c cost, per float64) {
		out[prefix+"_ns_"+unit] = metric{c.ns / per, "ns"}
		out[prefix+"_allocs_"+unit] = metric{c.allocs / per, "count"}
	}
	probes := []struct {
		name string
		run  func() error
	}{
		{"hocl.reduce", func() error {
			attrs, passes := probeTask(sh.fanIn)
			tmpl := attrs.LocalSolution(agentRules()...)
			engine := probeEngine()
			var err error
			set("hocl.reduce", "op", timeOp(budget, func() {
				sol := tmpl.SnapshotSolution()
				sol.Add(passes...)
				if e := engine.Reduce(sol); e != nil {
					err = e
				}
			}), 1)
			return err
		}},
		{"hocl.first_reduce", func() error {
			attrs, passes := probeTask(sh.fanIn)
			engine := probeEngine()
			var err error
			set("hocl.first_reduce", "op", timeOp(budget, func() {
				sol := attrs.LocalSolution(agentRules()...)
				sol.Add(passes...)
				if e := engine.Reduce(sol); e != nil {
					err = e
				}
			}), 1)
			return err
		}},
		{"hocl.codec", func() error {
			idle, _ := statusStates("N3_4")
			delta := hoclflow.StatusDelta{
				Task: "N3_4", Base: 0x1234, Next: 0x5678,
				RemovedHashes: []uint64{1, 2, 3},
				Added:         []hocl.Atom{hocl.Tuple{hocl.Ident("RES"), hocl.NewSolution(hocl.Str("out-work"))}},
				Inert:         true,
			}
			payload := []hocl.Atom{hocl.Tuple{hocl.Ident("N3_4"), hocl.NewSolution(idle...)}, delta.Atom()}
			var buf []byte
			set("hocl.encode", "op", timeOp(budget/2, func() { buf = hocl.AppendAtoms(buf[:0], payload) }), 1)
			var err error
			set("hocl.decode", "op", timeOp(budget/2, func() {
				if _, e := hocl.DecodeAtoms(buf); e != nil {
					err = e
				}
			}), 1)
			return err
		}},
		{"hoclflow.rules_build", func() error {
			attrs, _ := probeTask(sh.fanIn)
			set("hoclflow.rules_build", "agent", timeOp(budget, func() {
				_ = attrs.LocalSolution(agentRules()...)
			}), 1)
			return nil
		}},
		{"hoclflow.status_encode", func() error {
			idle, done := statusStates("N3_4")
			enc := &hoclflow.StatusEncoder{Task: "N3_4"}
			flip := false
			c := timeOp(budget, func() {
				state := idle
				if flip = !flip; flip {
					state = done
				}
				_ = enc.Encode(state, true)
			})
			out["hoclflow.status_encode_ns_op"] = metric{c.ns, "ns"}
			return nil
		}},
		{"workflow.translate", func() error {
			tasks := float64(len(sh.def.Tasks))
			var err error
			set("workflow.translate", "task", timeOp(budget, func() {
				if _, e := sh.def.TranslateAgents(); e != nil {
					err = e
				}
			}), tasks)
			data, jerr := sh.def.JSON()
			if jerr != nil {
				return jerr
			}
			c := timeOp(budget/2, func() {
				if _, e := ginflow.FromJSON(data); e != nil {
					err = e
				}
			})
			out["workflow.from_json_ns_task"] = metric{c.ns / tasks, "ns"}
			return err
		}},
		{"executor.deploy", func() error {
			specs, err := sh.def.TranslateAgents()
			if err != nil {
				return err
			}
			ex, err := executor.New(sh.executor)
			if err != nil {
				return err
			}
			cl := cluster.New(cluster.Config{Nodes: clusterNodes, CoresPerNode: clusterCores, Virtual: true})
			var c cost
			onClock(cl.Clock(), func() {
				c = timeOp(budget, func() {
					placements, _, e := ex.Deploy(context.Background(), specs, cl)
					if e != nil {
						err = e
					}
					for _, p := range placements {
						p.Node.Release()
					}
				})
			})
			out["executor.deploy_ns_agent"] = metric{c.ns / float64(len(specs)), "ns"}
			return err
		}},
		{"cluster.vstep", func() error {
			out["cluster.vstep_ns"] = metric{vstep(sh.waiters, budget/2), "ns"}
			out["cluster.vstep_ns_w1"] = metric{vstep(1, budget/2), "ns"}
			return nil
		}},
		{"mq.publish_deliver", func() error {
			clock := cluster.NewVirtualClock()
			broker, err := mq.NewBroker(sh.broker, clock)
			if err != nil {
				return err
			}
			defer broker.Close()
			const topic = "wf1.sa.T2"
			sub, err := broker.Subscribe(topic)
			if err != nil {
				return err
			}
			defer sub.Cancel()
			msg := []hocl.Atom{hoclflow.PassMessage("T1", []hocl.Atom{hocl.Str("out-T1")})}
			onClock(clock, func() {
				set("mq.publish_deliver", "msg", timeOp(budget, func() {
					if e := broker.PublishAtoms(topic, msg); e != nil {
						err = e
						return
					}
					if _, e := sub.Next(context.Background()); e != nil {
						err = e
					}
				}), 1)
			})
			return err
		}},
		{"space.apply", func() error {
			idle, done := statusStates("N3_4")
			// Every push carries a version; the space drops stale ones,
			// so each batch is a fresh run of pushes from one encoder.
			enc := &hoclflow.StatusEncoder{Task: "N3_4"}
			sp := space.New()
			var failed, flip bool
			batch := func(full bool) func(n int) func() {
				return func(n int) func() {
					msgs := make([]mq.Message, n)
					for i := range msgs {
						state := idle
						if flip = !flip; flip {
							state = done
						}
						if full {
							enc.Reset()
						}
						msgs[i] = mq.Message{Atoms: enc.Encode(state, true)}
					}
					return func() {
						for i := range msgs {
							if !sp.ApplyMessage(msgs[i]) {
								failed = true
							}
						}
					}
				}
			}
			set("space.apply_full", "msg", measure(budget/2, batch(true)), 1)
			set("space.apply_delta", "msg", measure(budget/2, batch(false)), 1)
			if failed {
				return fmt.Errorf("space rejected a status payload")
			}
			big := space.New()
			for _, t := range sh.def.Tasks {
				st, _ := statusStates(t.ID)
				e := &hoclflow.StatusEncoder{Task: t.ID}
				big.ApplyMessage(mq.Message{Atoms: e.Encode(st, true)})
			}
			c := timeOp(budget/2, func() { _ = big.StateFingerprint() })
			out["space.fingerprint_ns_task"] = metric{c.ns / float64(len(sh.def.Tasks)), "ns"}
			return nil
		}},
		{"journal", func() error { return journalProbe(sh, budget, out) }},
		{"transport.roundtrip", func() error {
			c, err := transportProbe(budget)
			set("transport.roundtrip", "msg", c, 1)
			return err
		}},
	}
	for _, p := range probes {
		end := span("probe " + p.name)
		err := p.run()
		end()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return out, nil
}

// vstep times one schedule step of a virtual clock — a participant
// sleeping one model second and being woken — while w other
// participants are parked in SleepCtx with a live context, as agents
// waiting for their inputs are.
func vstep(w int, budget time.Duration) float64 {
	clock := cluster.NewVirtualClock()
	ctx, cancel := context.WithCancel(context.Background())
	var parked sync.WaitGroup
	parked.Add(w)
	for i := 0; i < w; i++ {
		clock.Go(func() {
			defer parked.Done()
			_ = clock.SleepCtx(ctx, 1e12)
		})
	}
	var c cost
	onClock(clock, func() {
		c = timeOp(budget, func() { _ = clock.SleepCtx(context.Background(), 1) })
		cancel()
	})
	parked.Wait()
	return c.ns
}

func journalProbe(sh shape, budget time.Duration, out map[string]metric) error {
	dir, err := os.MkdirTemp(sh.tmpDir, "journal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(journal.Config{Dir: dir})
	if err != nil {
		return err
	}
	idle, _ := statusStates("N3_4")
	status := []hocl.Atom{hocl.Tuple{hocl.Ident("N3_4"), hocl.NewSolution(idle...)}}
	inbox := []hocl.Atom{hoclflow.PassMessage("N3_3", []hocl.Atom{hocl.Str("out-N3_3")})}
	snapshot := make([]hocl.Atom, len(sh.def.Tasks))
	for i, t := range sh.def.Tasks {
		st, _ := statusStates(t.ID)
		snapshot[i] = hocl.Tuple{hocl.Ident(t.ID), hocl.NewSolution(st...)}
	}
	meta := func(id int64) journal.SessionMeta {
		return journal.SessionMeta{ID: id, Workflow: []byte(`{"tasks":[]}`)}
	}

	// Write side: each kind of record appends to its own session, removed
	// when its loop ends so the probe leaves no large files behind.
	var werr error
	note := func(e error) {
		if e != nil {
			werr = e
		}
	}
	appendProbe := func(id int64, name string, per float64, op func(w *journal.SessionWriter) error) error {
		w, err := j.CreateSession(meta(id))
		if err != nil {
			return err
		}
		c := timeOp(budget/4, func() { note(op(w)) })
		out[name] = metric{c.ns / per, "ns"}
		note(w.Close())
		return j.RemoveSession(id)
	}
	if err := appendProbe(1, "journal.append_status_ns_rec", 1, func(w *journal.SessionWriter) error {
		return w.AppendStatus(status)
	}); err != nil {
		return err
	}
	if err := appendProbe(2, "journal.append_inbox_ns_rec", 1, func(w *journal.SessionWriter) error {
		return w.AppendInbox("wf1.sa.N3_4", inbox)
	}); err != nil {
		return err
	}
	if err := appendProbe(3, "journal.checkpoint_ns_task", float64(len(snapshot)), func(w *journal.SessionWriter) error {
		return w.Checkpoint(snapshot)
	}); err != nil {
		return err
	}

	// Read side: what recovery replays — a snapshot, then the status and
	// inbox records journaled after it.
	const records = 2000
	w, err := j.CreateSession(meta(4))
	if err != nil {
		return err
	}
	note(w.Checkpoint(snapshot))
	for i := 0; i < records/2; i++ {
		note(w.AppendStatus(status))
		note(w.AppendInbox("wf1.sa.N3_4", inbox))
	}
	note(w.Close())
	c := timeOp(budget/4, func() {
		st, e := j.ReadSession(4)
		if e == nil && st.StatusRecords != records/2 {
			e = fmt.Errorf("read back %d status records, wrote %d", st.StatusRecords, records/2)
		}
		note(e)
	})
	out["journal.read_session_ns_rec"] = metric{c.ns / records, "ns"}
	return werr
}

// transportProbe times PublishAtoms -> Next through a transport server
// and client over loopback TCP on the real clock.
func transportProbe(budget time.Duration) (cost, error) {
	clock := cluster.NewClock(time.Microsecond)
	broker := mq.NewQueueBrokerSharded(clock, 0.001, 4)
	defer broker.Close()
	srv, err := transport.Listen("127.0.0.1:0", transport.ServerConfig{Broker: broker})
	if err != nil {
		return cost{}, err
	}
	defer srv.Close()
	rb, err := transport.Dial(srv.Addr(), transport.DialConfig{Name: "probe"})
	if err != nil {
		return cost{}, err
	}
	defer rb.Close()
	const topic = "sa.rt"
	sub, err := rb.Subscribe(topic)
	if err != nil {
		return cost{}, err
	}
	defer sub.Cancel()
	msg := []hocl.Atom{hoclflow.PassMessage("T1", []hocl.Atom{hocl.Str("out-T1")})}
	roundtrip := func(timeout time.Duration) error {
		if err := rb.PublishAtoms(topic, msg); err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		_, err := sub.Next(ctx)
		return err
	}
	// Until ROADMAP C.1 makes pull the only consumption path, a
	// real-clock subscription still owns a push-side drain goroutine that
	// takes the first batch; warm up until a delivery comes through Next.
	for i := 0; ; i++ {
		if err := roundtrip(200 * time.Millisecond); err == nil {
			break
		} else if i == 5 {
			return cost{}, fmt.Errorf("no delivery through Next: %w", err)
		}
	}
	c := timeOp(budget, func() {
		if e := roundtrip(5 * time.Second); e != nil {
			err = e
		}
	})
	return c, err
}
