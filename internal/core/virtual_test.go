package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/montage"
	"ginflow/internal/mq"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// Virtual-time behaviour of the engine (DESIGN.md "Virtual time"):
// same-seed runs must report bit-identical model-time numbers, scale
// costs CPU instead of wall-clock, and the observable outcome — space
// fingerprint, task statuses, completion causality — must match the
// real-clock engine exactly.

// virtualCluster mirrors fastCluster on the discrete-event clock.
func virtualCluster(nodes int, seed int64) cluster.Config {
	return cluster.Config{Nodes: nodes, CoresPerNode: 24, Seed: seed, Virtual: true}
}

// zeroServiceTime removes the modelled per-message broker occupancy so
// a run's critical path closes over service durations and hop latencies
// alone — the regime where final model time is predictable in closed
// form (the scale tests below assert exact equality against it).
func zeroServiceTime(t *testing.T, m *Manager) {
	t.Helper()
	st, ok := m.broker.(interface{ SetServiceTime(float64) })
	if !ok {
		t.Fatalf("broker %T has no service-time knob", m.broker)
	}
	st.SetServiceTime(0)
}

// fanSummary captures every timing-flavoured output of a fan run: the
// determinism test requires two same-seed runs to agree on all of it,
// bit for bit.
type fanSummary struct {
	Deploy, Exec, Total []float64
	Events              [][]trace.Event
	Fingerprints        []uint64
}

// runFan submits `fan` copies of a seeded 8x8 diamond to one
// shared virtual-clock Manager — under the full message/invocation
// chaos mix, the hardest case for timing stability — and collects the
// summary.
func runFan(t *testing.T, fan int) fanSummary {
	t.Helper()
	m, err := NewManager(Config{
		Executor:     executor.KindSSH,
		Broker:       mq.KindQueue,
		Cluster:      virtualCluster(25, 7),
		Timeout:      2 * time.Minute,
		CollectTrace: true,
		Chaos:        soakChaosMix(7),
		Retry:        failure.RetryConfig{MaxAttempts: 8, BackoffBase: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Hold the run token across the submit loop so all sessions start at
	// the same model instant. Submitted from outside the schedule,
	// session 0 would already be consuming model time and chaos draws
	// while sessions 1–2 were still being submitted, and their start
	// offsets would be wall-clock facts.
	clock := m.Cluster().Clock()
	clock.Enter()
	sessions := make([]*Session, fan)
	for i := range sessions {
		def := workflow.Diamond(workflow.DefaultDiamondSpec(8, 8, false))
		s, err := m.Submit(context.Background(), def, diamondServices(nil))
		if err != nil {
			clock.Exit()
			t.Fatal(err)
		}
		sessions[i] = s
	}
	clock.Exit()
	var sum fanSummary
	for _, s := range sessions {
		rep, err := s.Wait(context.Background())
		if err != nil {
			t.Fatalf("fan session failed: %v", err)
		}
		sum.Deploy = append(sum.Deploy, rep.DeployTime)
		sum.Exec = append(sum.Exec, rep.ExecTime)
		sum.Total = append(sum.Total, rep.TotalTime)
		sum.Events = append(sum.Events, rep.Events)
		sum.Fingerprints = append(sum.Fingerprints, s.space.StateFingerprint())
	}
	// Note the shared clock's final reading is NOT part of the summary:
	// after the last Wait returns, chaos redelivery timers are still
	// draining, so a Now() read from outside the schedule races with
	// teardown. The deterministic quantities are the per-session reports.
	return sum
}

// TestVirtualTimingDeterminism: two same-seed virtual runs of a chaotic
// 8x8 diamond fan must report bit-identical timing numbers — deploy,
// exec and total times, the final clock reading, and every model-time
// stamp on every event timeline. This is the virtual clock's core
// promise; it must hold under -race and -count=N.
func TestVirtualTimingDeterminism(t *testing.T) {
	a := runFan(t, 3)
	b := runFan(t, 3)
	for i, total := range a.Total {
		if total <= 0 {
			t.Fatalf("fan session %d reported zero model time", i)
		}
	}
	for i, evs := range a.Events {
		if len(evs) == 0 {
			t.Fatalf("fan session %d collected no events", i)
		}
	}
	if !reflect.DeepEqual(a.Deploy, b.Deploy) || !reflect.DeepEqual(a.Exec, b.Exec) || !reflect.DeepEqual(a.Total, b.Total) {
		t.Errorf("timing numbers diverged between same-seed runs:\n  run A deploy=%v exec=%v total=%v\n  run B deploy=%v exec=%v total=%v",
			a.Deploy, a.Exec, a.Total, b.Deploy, b.Exec, b.Total)
	}
	if !reflect.DeepEqual(a.Fingerprints, b.Fingerprints) {
		t.Errorf("fingerprints diverged: %x vs %x", a.Fingerprints, b.Fingerprints)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		for i := range a.Events {
			if len(a.Events[i]) != len(b.Events[i]) {
				t.Errorf("session %d: %d events vs %d", i, len(a.Events[i]), len(b.Events[i]))
				continue
			}
			for j := range a.Events[i] {
				if a.Events[i][j] != b.Events[i][j] {
					t.Errorf("session %d event %d diverged:\n  A: %v\n  B: %v", i, j, a.Events[i][j], b.Events[i][j])
					break
				}
			}
		}
	}
}

// sshDeployModel is the SSH executor's deployment time for its default
// tuning (executor.SSH godoc: base 2.0, 0.25 per node, 0.6 per batch of
// 16 parallel connections).
func sshDeployModel(nodes, agents int) float64 {
	return 2.0 + 0.25*float64(nodes) + 0.6*math.Ceil(float64(agents)/16)
}

// diamondExecModel is the critical path of an h×v simple-connected
// diamond with zero broker occupancy: v+2 sequential stages (split, v
// mesh rows, merge), each one service invocation plus one broker hop of
// latency — the horizontal width only adds parallel work, never path
// length.
func diamondExecModel(v int, service, latency float64) float64 {
	return float64(v+2) * (service + latency)
}

// TestVirtualScaleMesh100x100: a 10,000-task mesh — far beyond what the
// real clock can run in test budgets — must complete under the virtual
// clock in CI-friendly wall time, converge to a placement-independent
// fingerprint, and land the clock exactly on the analytic critical-path
// model time.
func TestVirtualScaleMesh100x100(t *testing.T) {
	if raceEnabled {
		t.Skip("10k-goroutine scale run under the race detector blows the CI budget")
	}
	if testing.Short() {
		t.Skip("scale test")
	}
	const (
		h, v   = 100, 100
		agents = h*v + 2 // mesh + split + merge
		nodes  = 100
	)
	run := func(seed int64) (*Report, uint64, float64) {
		m, err := NewManager(Config{
			Executor: executor.KindSSH,
			Broker:   mq.KindQueue,
			// 101 cores per node: 10,100 slots for the 10,002 agents.
			Cluster: cluster.Config{Nodes: nodes, CoresPerNode: 101, Seed: seed, Virtual: true},
			Timeout: 5 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		zeroServiceTime(t, m)
		def := workflow.Diamond(workflow.DefaultDiamondSpec(h, v, false))
		s, err := m.Submit(context.Background(), def, diamondServices(nil))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Wait(context.Background())
		if err != nil {
			t.Fatalf("100x100 mesh failed: %v", err)
		}
		return rep, s.space.StateFingerprint(), m.cluster.Clock().Now()
	}

	repA, fpA, nowA := run(1)
	_, fpB, nowB := run(99)

	if repA.Agents != agents {
		t.Errorf("deployed %d agents, want %d", repA.Agents, agents)
	}
	if len(repA.Statuses) != agents {
		t.Errorf("report carries %d task statuses, want %d", len(repA.Statuses), agents)
	}
	for task, st := range repA.Statuses {
		if st != hoclflow.StatusCompleted {
			t.Errorf("task %s = %v, want completed", task, st)
		}
	}
	// The converged fingerprint reflects workflow state only: a
	// different seed reshuffles placement and chaos-free hash draws yet
	// must land on the identical space.
	if fpA != fpB {
		t.Errorf("fingerprint depends on the cluster seed: %016x vs %016x", fpA, fpB)
	}
	// 0.1 is diamondServices' noop duration, 2.0 the queue broker's
	// modelled hop latency (mq.DefaultQueueLatency).
	want := sshDeployModel(nodes, agents) + diamondExecModel(v, 0.1, mq.DefaultQueueLatency)
	if math.Abs(nowA-want) > 1e-6 {
		t.Errorf("final model time %v, analytic critical path %v", nowA, want)
	}
	if nowA != nowB {
		t.Errorf("final model time differs across seeds: %v vs %v", nowA, nowB)
	}
}

// TestVirtualThousandSessionFan: one thousand concurrent sessions over
// a single shared Manager. Submissions are pinned to model time zero by
// joining the schedule (Clock.Enter) for the submission loop, so every
// session runs the same critical path concurrently — the final clock
// reading must equal one session's path, not a thousand.
func TestVirtualThousandSessionFan(t *testing.T) {
	if raceEnabled {
		t.Skip("thousand-session run under the race detector blows the CI budget")
	}
	if testing.Short() {
		t.Skip("scale test")
	}
	const (
		fan   = 1000
		nodes = 125 // 125 × 24 cores = 3000 slots, one per agent
	)
	m, err := NewManager(Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  virtualCluster(nodes, 1),
		Timeout:  5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	zeroServiceTime(t, m)

	clock := m.cluster.Clock()
	clock.Enter()
	sessions := make([]*Session, fan)
	for i := range sessions {
		def := workflow.Diamond(workflow.DefaultDiamondSpec(1, 1, false))
		s, err := m.Submit(context.Background(), def, diamondServices(nil))
		if err != nil {
			clock.Exit()
			t.Fatal(err)
		}
		sessions[i] = s
	}
	clock.Exit()

	// One 1x1 diamond: 3 agents (one deploy batch), 3 stages.
	want := sshDeployModel(nodes, 3) + diamondExecModel(1, 0.1, mq.DefaultQueueLatency)
	var fp0 uint64
	for i, s := range sessions {
		rep, err := s.Wait(context.Background())
		if err != nil {
			t.Fatalf("session %d failed: %v", i, err)
		}
		if math.Abs(rep.TotalTime-want) > 1e-6 {
			t.Fatalf("session %d total %v, want the single-session critical path %v", i, rep.TotalTime, want)
		}
		fp := s.space.StateFingerprint()
		if i == 0 {
			fp0 = fp
		} else if fp != fp0 {
			t.Fatalf("session %d fingerprint %016x differs from session 0's %016x", i, fp, fp0)
		}
	}
	if now := clock.Now(); math.Abs(now-want) > 1e-6 {
		t.Errorf("final model time %v after %d concurrent sessions, want one critical path %v", now, fan, want)
	}
}

// modeRun is one workload enactment's observable outcome, compared
// across clock modes.
type modeRun struct {
	fp       uint64
	statuses map[string]hoclflow.Status
	order    []string // first task-completed event per task, in timeline order
}

func runMode(t *testing.T, def *workflow.Definition, services *agent.Registry, cfg Config) modeRun {
	t.Helper()
	cfg.CollectTrace = true
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.Submit(context.Background(), def, services)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Wait(context.Background())
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	var order []string
	seen := map[string]bool{}
	for _, e := range rep.Events {
		if e.Kind == trace.TaskCompleted && !seen[e.Task] {
			seen[e.Task] = true
			order = append(order, e.Task)
		}
	}
	return modeRun{fp: s.space.StateFingerprint(), statuses: rep.Statuses, order: order}
}

// assertCausalOrder verifies a completion sequence respects every
// workflow dependency edge: no task completes before a predecessor.
func assertCausalOrder(t *testing.T, def *workflow.Definition, order []string, mode string) {
	t.Helper()
	idx := map[string]int{}
	for i, task := range order {
		idx[task] = i
	}
	for _, task := range order {
		for _, src := range def.SrcOf(task) {
			at, ok := idx[src]
			if !ok {
				t.Errorf("%s: %s completed but its predecessor %s never did", mode, task, src)
				continue
			}
			if at > idx[task] {
				t.Errorf("%s: %s completed at position %d before its predecessor %s at %d",
					mode, task, idx[task], src, at)
			}
		}
	}
}

// TestCrossModeEquivalence: the virtual clock must not change what a
// run computes — only how time passes. For the diamond, the Montage
// workload and the §V-B adaptation scenario, real- and virtual-clock
// enactments must converge to the same space fingerprint, the same
// task statuses and a completion order respecting the same dependency
// edges; the same holds under a seeded chaos schedule, and two
// same-seed virtual runs must order completions identically.
func TestCrossModeEquivalence(t *testing.T) {
	type workload struct {
		name     string
		def      *workflow.Definition
		services *agent.Registry
		causal   bool // the def's edges describe every completed task
		chaos    bool // also soak this workload under the chaos mix
		slow     bool
	}
	spec := workflow.DefaultDiamondSpec(2, 2, false)
	adapted := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt")
	last, _ := adapted.TaskByID(workflow.LastMeshTask(spec))
	last.Service = "flaky"
	adaptedServices := diamondServices(nil)
	adaptedServices.RegisterFailing("flaky", 0.1)
	montageServices := agent.NewRegistry()
	montage.RegisterServices(montageServices)

	workloads := []workload{
		{name: "diamond", def: workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, false)),
			services: diamondServices(nil), causal: true, chaos: true},
		{name: "adapted", def: adapted, services: adaptedServices, chaos: true},
		{name: "montage", def: montage.Workflow(), services: montageServices, causal: true, slow: true},
	}

	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			if w.slow && testing.Short() {
				t.Skip("slow workload")
			}
			clean := func(virtual bool) Config {
				cfg := Config{
					Executor: executor.KindSSH,
					Broker:   mq.KindLog,
					Cluster:  fastCluster(8),
					Timeout:  2 * time.Minute,
				}
				if virtual {
					cfg.Cluster = virtualCluster(8, 1)
				}
				return cfg
			}
			real := runMode(t, w.def, w.services, clean(false))
			virt := runMode(t, w.def, w.services, clean(true))
			virt2 := runMode(t, w.def, w.services, clean(true))

			if real.fp != virt.fp {
				t.Errorf("fingerprint diverged across clock modes: real %016x, virtual %016x", real.fp, virt.fp)
			}
			if !reflect.DeepEqual(real.statuses, virt.statuses) {
				t.Errorf("statuses diverged across clock modes:\n  real    %v\n  virtual %v", real.statuses, virt.statuses)
			}
			realSet, virtSet := map[string]bool{}, map[string]bool{}
			for _, task := range real.order {
				realSet[task] = true
			}
			for _, task := range virt.order {
				virtSet[task] = true
			}
			if !reflect.DeepEqual(realSet, virtSet) {
				t.Errorf("completed task sets diverged:\n  real    %v\n  virtual %v", real.order, virt.order)
			}
			if w.causal {
				assertCausalOrder(t, w.def, real.order, "real")
				assertCausalOrder(t, w.def, virt.order, "virtual")
			}
			if !reflect.DeepEqual(virt.order, virt2.order) {
				t.Errorf("same-seed virtual runs ordered completions differently:\n  %v\n  %v", virt.order, virt2.order)
			}

			if !w.chaos {
				return
			}
			chaotic := func(virtual bool) Config {
				cfg := clean(virtual)
				cfg.Chaos = soakChaosMix(42)
				cfg.Retry = failure.RetryConfig{MaxAttempts: 8, BackoffBase: 0.25}
				return cfg
			}
			realChaos := runMode(t, w.def, w.services, chaotic(false))
			virtChaos := runMode(t, w.def, w.services, chaotic(true))
			virtChaos2 := runMode(t, w.def, w.services, chaotic(true))
			if realChaos.fp != real.fp {
				t.Errorf("real chaotic run diverged from fault-free fingerprint: %016x vs %016x", realChaos.fp, real.fp)
			}
			if virtChaos.fp != real.fp {
				t.Errorf("virtual chaotic run diverged from fault-free fingerprint: %016x vs %016x", virtChaos.fp, real.fp)
			}
			if !reflect.DeepEqual(virtChaos.order, virtChaos2.order) {
				t.Errorf("same-seed chaotic virtual runs ordered completions differently:\n  %v\n  %v",
					virtChaos.order, virtChaos2.order)
			}
		})
	}
}

// siblingOutcome is everything a sibling-cancel run reports.
type siblingOutcome struct {
	Killer, Victim *Report
	VictimErr      string
}

// errSiblingKill is the cause the killer session's service cancels its
// sibling with.
var errSiblingKill = errors.New("cancelled by a sibling session")

// runSiblingCancel runs two sessions on one virtual Manager: a 4x4
// victim whose mesh services take 5 model seconds, and a 2x2 killer
// whose mesh services cancel the victim when they return. Both are
// submitted from context.Background() — so the scheduler owns and hears
// every session context — or, with cancellable, from a caller context
// that can end, whose descendants the scheduler polls.
func runSiblingCancel(t *testing.T, cancellable bool) siblingOutcome {
	t.Helper()
	m, err := NewManager(Config{
		Executor:     executor.KindSSH,
		Broker:       mq.KindQueue,
		Cluster:      virtualCluster(8, 3),
		Timeout:      time.Minute,
		CollectTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	if cancellable {
		var stop context.CancelFunc
		ctx, stop = context.WithCancel(ctx)
		defer stop()
	}

	var victim *Session
	killerServices := agent.NewRegistry()
	killerServices.RegisterNoop(0.1, "split", "merge")
	killerServices.RegisterFunc("work", 0.5, func([]hocl.Atom) (hocl.Atom, error) {
		victim.Cancel(errSiblingKill)
		return hocl.Str("out-work"), nil
	})
	victimServices := agent.NewRegistry()
	victimServices.RegisterNoop(0.1, "split", "merge")
	victimServices.RegisterNoop(5, "work")

	// Both sessions start at the same model instant (see runFan).
	clock := m.Cluster().Clock()
	clock.Enter()
	victim, err = m.Submit(ctx, workflow.Diamond(workflow.DefaultDiamondSpec(4, 4, false)), victimServices)
	if err != nil {
		clock.Exit()
		t.Fatal(err)
	}
	killer, err := m.Submit(ctx, workflow.Diamond(workflow.DefaultDiamondSpec(2, 2, false)), killerServices)
	clock.Exit()
	if err != nil {
		t.Fatal(err)
	}
	var out siblingOutcome
	if out.Killer, err = killer.Wait(context.Background()); err != nil {
		t.Fatalf("killer session: %v", err)
	}
	out.Victim, err = victim.Wait(context.Background())
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, errSiblingKill) {
		t.Fatalf("victim session ended with %v, want ErrCancelled wrapping the sibling's cause", err)
	}
	out.VictimErr = err.Error()
	return out
}

// TestVirtualSiblingCancelDeterminism: a cancel made inside the schedule
// — here by one session's service, at a fixed model instant, ending a
// sibling session — lands at the same point of the schedule every run,
// whether the scheduler hears it or polls for it. The victim's error and
// both sessions' reports, every model timestamp and event included, are
// bit-identical across ten runs.
func TestVirtualSiblingCancelDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cancellable bool
	}{{"heard", false}, {"polled", true}} {
		t.Run(tc.name, func(t *testing.T) {
			first := runSiblingCancel(t, tc.cancellable)
			if first.Victim == nil || first.Victim.ExecTime >= 5 {
				t.Fatalf("victim report %v: want a run cut short inside its first mesh row", first.Victim)
			}
			for i := 1; i < 10; i++ {
				got := runSiblingCancel(t, tc.cancellable)
				if got.VictimErr != first.VictimErr {
					t.Fatalf("run %d: victim error %q, run 0 %q", i, got.VictimErr, first.VictimErr)
				}
				for _, pair := range [][2]*Report{{first.Killer, got.Killer}, {first.Victim, got.Victim}} {
					a, b := reflect.ValueOf(*pair[0]), reflect.ValueOf(*pair[1])
					for f := 0; f < a.NumField(); f++ {
						if !reflect.DeepEqual(a.Field(f).Interface(), b.Field(f).Interface()) {
							t.Fatalf("run %d: %s report field %s = %v, run 0 %v", i, pair[0].Workflow,
								a.Type().Field(f).Name, b.Field(f).Interface(), a.Field(f).Interface())
						}
					}
				}
			}
		})
	}
}
