package core

import (
	"context"
	"errors"
	"os"
	"strconv"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/hoclflow"
	"ginflow/internal/journal"
	"ginflow/internal/montage"
	"ginflow/internal/mq"
	"ginflow/internal/obs"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// TestChaosAgentCrashOnly runs §V-D through the chaos schedule alone:
// Montage on Mesos + Kafka with only AgentCrashP set. Every crash is
// recovered, the schedule draws on the agent-crash boundary and no
// other, and there is nothing to settle — the broker, space, socket,
// journal and deploy paths stay on their no-chaos branches.
func TestChaosAgentCrashOnly(t *testing.T) {
	if _, err := NewManager(Config{Chaos: failure.ChaosConfig{AgentCrashP: 1.5}}); err == nil {
		t.Fatal("NewManager accepted AgentCrashP = 1.5")
	}
	services := agent.NewRegistry()
	montage.RegisterServices(services)
	reg := obs.NewRegistry()
	m, err := NewManager(Config{
		Executor: executor.KindMesos,
		Broker:   mq.KindLog,
		Cluster:  fastCluster(25),
		Metrics:  reg,
		Chaos:    failure.ChaosConfig{AgentCrashP: 0.5},
		Timeout:  2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.Submit(context.Background(), montage.Workflow(), services)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Wait(context.Background())
	if err != nil {
		t.Fatalf("run failed: %v (report %v)", err, rep)
	}
	if rep.Failures == 0 || rep.Failures != rep.Recoveries {
		t.Errorf("failures = %d, recoveries = %d: want equal and non-zero", rep.Failures, rep.Recoveries)
	}
	if got := m.chaos.SettleSeconds(); got != 0 {
		t.Errorf("crash-only schedule settles for %v model seconds", got)
	}
	for b := failure.BoundaryMessage; b <= failure.BoundaryAgentCrash; b++ {
		draws := reg.Counter("ginflow_chaos_draws_total", "", obs.L("boundary", b.String())).Value()
		if crash := b == failure.BoundaryAgentCrash; crash != (draws > 0) {
			t.Errorf("boundary %s: %d draws", b, draws)
		}
	}
}

// The chaos soak: every workload below runs once fault-free to pin the
// converged space fingerprint, then once per seeded schedule with the
// full fault mix — message drop/duplicate/delay/reorder, transient and
// slow invocations, journal write errors and torn writes — and every
// chaotic run must land on the identical fingerprint. A divergence
// names its seed, so the failing schedule replays from the log alone.

// soakSeeds returns the number of seeded schedules each soak test runs.
// CI raises it via GINFLOW_CHAOS_SEEDS (the chaos-soak job sets 17, so
// the three workloads together cover 51 schedules under -race).
func soakSeeds(t *testing.T, def int) int {
	t.Helper()
	if s := os.Getenv("GINFLOW_CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad GINFLOW_CHAOS_SEEDS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 2
	}
	return def
}

// soakChaosMix is the full-surface fault mix: every boundary the
// schedule knows is perturbed at once.
func soakChaosMix(seed int64) failure.ChaosConfig {
	return failure.ChaosConfig{
		Seed:            seed,
		MessageDropP:    0.05,
		MessageDupP:     0.10,
		MessageDelayP:   0.10,
		MessageReorderP: 0.05,
		InvokeErrorP:    0.05,
		InvokeTimeoutP:  0.03,
		InvokeSlowP:     0.10,
		DeployErrorP:    0.10,
		JournalErrorP:   0.10,
		JournalTornP:    0.05,
	}
}

// runWithFingerprint executes def on a fresh Manager and returns the
// report plus the session space's converged state fingerprint.
func runWithFingerprint(t *testing.T, def *workflow.Definition, services *agent.Registry, cfg Config) (*Report, uint64) {
	t.Helper()
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
		t.Fatalf("run failed: %v (report %v)", err, rep)
	}
	return rep, s.space.StateFingerprint()
}

// soakWorkload runs the fault-free baseline, then `seeds` chaotic runs,
// requiring fingerprint-identical convergence every time.
func soakWorkload(t *testing.T, def *workflow.Definition, services *agent.Registry, seeds int, baseSeed int64) {
	t.Helper()
	clean := Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindLog,
		Cluster:  fastCluster(8),
		Timeout:  2 * time.Minute,
	}
	baseRep, baseFP := runWithFingerprint(t, def, services, clean)
	faultsSeen := int64(0)
	for i := 0; i < seeds; i++ {
		seed := baseSeed + int64(i)
		cfg := clean
		cfg.Journal = journal.Config{Dir: t.TempDir(), SnapshotEvery: 8}
		cfg.Chaos = soakChaosMix(seed)
		cfg.Retry = failure.RetryConfig{MaxAttempts: 8, BackoffBase: 0.25}
		rep, fp := runWithFingerprint(t, def, services, cfg)
		if fp != baseFP {
			t.Errorf("seed %d: space fingerprint %016x diverged from fault-free %016x", seed, fp, baseFP)
		}
		for task, st := range baseRep.Statuses {
			if rep.Statuses[task] != st {
				t.Errorf("seed %d: task %s converged to %v, fault-free run to %v", seed, task, rep.Statuses[task], st)
			}
		}
		faultsSeen += rep.DuplicatesSuppressed
	}
	// At the soak's duplicate probability the dedup layer must have
	// fired somewhere across the schedules, or the soak proved nothing.
	if seeds >= 4 && faultsSeen == 0 {
		t.Errorf("no duplicate was ever suppressed across %d schedules; soak looks vacuous", seeds)
	}
}

func TestChaosSoakDiamond(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, false))
	soakWorkload(t, def, diamondServices(nil), soakSeeds(t, 8), 100)
}

func TestChaosSoakMontage(t *testing.T) {
	if testing.Short() {
		t.Skip("Montage soak is slow")
	}
	services := agent.NewRegistry()
	montage.RegisterServices(services)
	soakWorkload(t, montage.Workflow(), services, soakSeeds(t, 4), 200)
}

// TestChaosSoakAdapted soaks the §V-B adaptation scenario: the last
// mesh service fails, the body is swapped mid-run — all while the fault
// schedule perturbs the messages carrying the ADAPT propagation.
func TestChaosSoakAdapted(t *testing.T) {
	spec := workflow.DefaultDiamondSpec(2, 2, false)
	def := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt")
	last, _ := def.TaskByID(workflow.LastMeshTask(spec))
	last.Service = "flaky"
	services := diamondServices(nil)
	services.RegisterFailing("flaky", 0.1)
	soakWorkload(t, def, services, soakSeeds(t, 6), 300)
}

// TestChaosDuplicateDeliverySuppressed aims the schedule at duplication
// alone: the per-inbox sequence numbers must absorb every duplicate and
// the run must still converge to the fault-free fingerprint.
func TestChaosDuplicateDeliverySuppressed(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, false))
	services := diamondServices(nil)
	clean := Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindLog,
		Cluster:  fastCluster(8),
		Timeout:  time.Minute,
	}
	_, baseFP := runWithFingerprint(t, def, services, clean)

	cfg := clean
	cfg.Chaos = failure.ChaosConfig{Seed: 42, MessageDupP: 0.5}
	rep, fp := runWithFingerprint(t, def, services, cfg)
	if rep.DuplicatesSuppressed == 0 {
		t.Fatal("p=0.5 duplication and nothing suppressed: the dedup layer never ran")
	}
	if fp != baseFP {
		t.Fatalf("duplicated deliveries changed the converged state: %016x vs %016x", fp, baseFP)
	}
	if got := rep.Statuses[workflow.DiamondMergeName]; got != hoclflow.StatusCompleted {
		t.Fatalf("merge = %v under duplication", got)
	}
}

// TestChaosEscalationFailsSession spends the retry budget on a certain
// invocation fault: the session must fail promptly with the structured
// cause chain — ErrRetriesExhausted wrapping the injected cause, the
// escalation visible on the event stream — instead of stalling until
// the timeout.
func TestChaosEscalationFailsSession(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(2, 2, false))
	m, err := NewManager(Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(4),
		Timeout:  time.Minute,
		Chaos: failure.ChaosConfig{
			Seed:           7,
			InvokeErrorP:   1,
			MaxConsecutive: -1, // never force a clean draw: the budget MUST run out
		},
		Retry: failure.RetryConfig{MaxAttempts: 2, BackoffBase: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s, err := m.Submit(context.Background(), def, diamondServices(nil), SubmitTrace())
	if err != nil {
		t.Fatal(err)
	}
	events := s.Events()
	start := time.Now()
	_, err = s.Wait(context.Background())
	if err == nil {
		t.Fatal("session completed under a certain invocation fault")
	}
	if time.Since(start) > 30*time.Second {
		t.Error("escalation did not preempt the session timeout")
	}
	if !errors.Is(err, failure.ErrRetriesExhausted) {
		t.Fatalf("error chain misses ErrRetriesExhausted: %v", err)
	}
	if !errors.Is(err, failure.ErrInjected) {
		t.Fatalf("error chain misses the injected cause: %v", err)
	}
	var esc *agent.EscalationError
	if !errors.As(err, &esc) {
		t.Fatalf("error chain misses the structured escalation: %v", err)
	}
	if esc.Task == "" || esc.Service == "" || esc.Attempts < 2 {
		t.Errorf("escalation cause incomplete: %+v", esc)
	}
	escalated := false
	for e := range events {
		if e.Kind == trace.AgentEscalated {
			escalated = true
		}
	}
	if !escalated {
		t.Error("no agent-escalated event on the session stream")
	}
}

// TestHubCountsDroppedDeliveries pins the lossy-hub contract: a full
// subscriber buffer drops the delivery and the drop is counted, never
// blocked on.
func TestHubCountsDroppedDeliveries(t *testing.T) {
	h := newHub[int](2)
	ch := h.subscribe()
	for i := 0; i < 10; i++ {
		h.publish(i)
	}
	if got := h.droppedCount(); got != 8 {
		t.Fatalf("dropped %d deliveries, want 8", got)
	}
	if len(ch) != 2 {
		t.Fatalf("buffer holds %d, want 2", len(ch))
	}
	// Draining reopens capacity; the counter is cumulative.
	<-ch
	h.publish(11)
	if got := h.droppedCount(); got != 8 {
		t.Fatalf("dropped %d after drain, want still 8", got)
	}
	h.close()
}
