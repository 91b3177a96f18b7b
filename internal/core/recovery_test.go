package core

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/hoclflow"
	"ginflow/internal/journal"
	"ginflow/internal/montage"
	"ginflow/internal/mq"
	"ginflow/internal/space"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// The crash-recovery harness: run a journal-backed session whose
// journal freezes at a chosen record count (the CrashAfterRecords test
// hook leaves the directory exactly as a process kill at that instant
// would), then recover it on a fresh Manager over the same directory
// and require the final report to match an uninterrupted run — without
// re-invoking any task whose RES was already journaled.

func journaledConfig(dir string, crashAfter int64) Config {
	return Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(8),
		Timeout:  60 * time.Second,
		Journal: journal.Config{
			Dir:               dir,
			SnapshotEvery:     8,
			CrashAfterRecords: crashAfter,
		},
	}
}

// journaledStatuses folds a journaled session's replay stream into a
// throwaway space and returns the per-task statuses the journal
// preserves — the ground truth for "this task's RES was durable before
// the crash".
func journaledStatuses(t *testing.T, j *journal.Journal, id int64) map[string]hoclflow.Status {
	t.Helper()
	st, err := j.ReadSession(id)
	if err != nil {
		t.Fatalf("read journaled session %d: %v", id, err)
	}
	sp := space.New()
	for _, payload := range st.Payloads {
		if len(payload) == 0 {
			continue
		}
		sp.ApplyMessage(mq.Message{Atoms: payload})
	}
	out := map[string]hoclflow.Status{}
	for name := range sp.TaskStates() {
		out[name] = sp.Status(name)
	}
	return out
}

// crashAndRecover runs one kill-point trial: execute the workflow with
// the journal frozen after crashAfter records, then recover on a second
// manager and return the recovered report plus the statuses the journal
// held at the kill point. ok is false when the kill point lies beyond
// the session's journal (nothing left to recover).
func crashAndRecover(t *testing.T, def *workflow.Definition, services *agent.Registry, crashAfter int64) (rep *Report, journaled map[string]hoclflow.Status, ok bool) {
	t.Helper()
	dir := t.TempDir()
	ctx := context.Background()

	m1, err := NewManager(journaledConfig(dir, crashAfter))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m1.Submit(ctx, def, services)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx); err != nil {
		t.Fatalf("first run failed: %v", err)
	}
	m1.Close()

	m2, err := NewManager(journaledConfig(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	ids, err := m2.journal.SessionIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		return nil, nil, false // crash point beyond the run: journal finished clean
	}
	journaled = journaledStatuses(t, m2.journal, ids[0])

	sessions, err := m2.Recover(ctx, services, SubmitTrace())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(sessions) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(sessions))
	}
	rep, err = sessions[0].Wait(ctx)
	if err != nil {
		t.Fatalf("recovered session failed: %v (report %v)", err, rep)
	}
	return rep, journaled, true
}

// assertMatchesBaseline requires the recovered run to reproduce the
// uninterrupted run's observable outcome and to have skipped every
// service whose result was already durable.
func assertMatchesBaseline(t *testing.T, rep *Report, baseline *Report, journaled map[string]hoclflow.Status, crashAfter int64) {
	t.Helper()
	if !reflect.DeepEqual(rep.Results, baseline.Results) {
		t.Errorf("kill@%d: results diverged:\n got %v\nwant %v", crashAfter, rep.Results, baseline.Results)
	}
	for task, st := range baseline.Statuses {
		if rep.Statuses[task] != st {
			t.Errorf("kill@%d: task %s recovered %v, want %v", crashAfter, task, rep.Statuses[task], st)
		}
	}
	// No re-invocation: a task whose RES was journaled must not invoke
	// its service again in the recovered run.
	invoked := map[string]bool{}
	for _, e := range rep.Events {
		if e.Kind == trace.ServiceInvoked {
			invoked[e.Task] = true
		}
	}
	for task, st := range journaled {
		if st == hoclflow.StatusCompleted && invoked[task] {
			t.Errorf("kill@%d: completed task %s was re-invoked after recovery", crashAfter, task)
		}
	}
}

func TestRecoverDiamondAtRandomKillPoints(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, false))
	services := diamondServices(nil)

	baseline, err := Run(context.Background(), def, services, journaledConfig("", 0).withoutJournal())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	rng := rand.New(rand.NewSource(7))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	covered := 0
	for i := 0; i < trials; i++ {
		crashAfter := int64(1 + rng.Intn(45))
		rep, journaled, ok := crashAndRecover(t, def, services, crashAfter)
		if !ok {
			continue
		}
		covered++
		assertMatchesBaseline(t, rep, baseline, journaled, crashAfter)
	}
	if covered == 0 {
		t.Fatal("no kill point landed inside the journal; harness is vacuous")
	}
}

func TestRecoverMontageKillPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("Montage recovery is slow")
	}
	def := montage.Workflow()
	services := agent.NewRegistry()
	montage.RegisterServices(services)

	baseline, err := Run(context.Background(), def, services, journaledConfig("", 0).withoutJournal())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	// One early and one deep kill point keep the runtime bounded while
	// exercising both a mostly-template and a mostly-journaled recovery.
	// The journal length varies with interleaving (unchanged-state push
	// dedup), so the deep point halves until it lands inside the run.
	rep, journaled, ok := crashAndRecover(t, def, services, 25)
	if !ok {
		t.Fatal("kill@25 landed beyond the Montage journal")
	}
	assertMatchesBaseline(t, rep, baseline, journaled, 25)

	for crashAfter := int64(400); crashAfter >= 50; crashAfter /= 2 {
		rep, journaled, ok := crashAndRecover(t, def, services, crashAfter)
		if !ok {
			continue
		}
		assertMatchesBaseline(t, rep, baseline, journaled, crashAfter)
		return
	}
	t.Fatal("no deep kill point landed inside the Montage journal")
}

func TestRecoverAdaptedDiamondKillPoints(t *testing.T) {
	spec := workflow.DefaultDiamondSpec(2, 2, false)
	def := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt")
	services := diamondServices(nil)
	services.RegisterFailing("work", 0.1)

	baseline, err := Run(context.Background(), def, services, journaledConfig("", 0).withoutJournal())
	if err != nil {
		t.Fatalf("baseline adaptive run: %v", err)
	}
	if len(baseline.Adaptations) == 0 {
		t.Fatal("baseline never adapted; test is vacuous")
	}

	rng := rand.New(rand.NewSource(11))
	covered := 0
	trials := 5
	if testing.Short() {
		trials = 2
	}
	for i := 0; i < trials; i++ {
		crashAfter := int64(1 + rng.Intn(40))
		rep, _, ok := crashAndRecover(t, def, services, crashAfter)
		if !ok {
			continue
		}
		covered++
		if !reflect.DeepEqual(rep.Results, baseline.Results) {
			t.Errorf("kill@%d: adapted results diverged:\n got %v\nwant %v",
				crashAfter, rep.Results, baseline.Results)
		}
		for _, exit := range def.Exits() {
			if rep.Statuses[exit] != hoclflow.StatusCompleted {
				t.Errorf("kill@%d: exit %s is %v", crashAfter, exit, rep.Statuses[exit])
			}
		}
	}
	if covered == 0 {
		t.Fatal("no kill point landed inside the journal; harness is vacuous")
	}
}

// TestRecoverTornTail appends garbage to the newest segment after the
// simulated crash — the torn half-record of a mid-write kill — and
// requires recovery to succeed regardless.
func TestRecoverTornTail(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(2, 2, false))
	services := diamondServices(nil)
	dir := t.TempDir()
	ctx := context.Background()

	m1, err := NewManager(journaledConfig(dir, 12))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m1.Submit(ctx, def, services)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	// Tear the tail of every segment file left behind.
	matches, err := filepath.Glob(filepath.Join(dir, "wf-*", "seg-*.gfj"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files to tear (%v)", err)
	}
	for _, path := range matches {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{0x13, 0x37, 0xde, 0xad})
		f.Close()
	}

	m2, err := NewManager(journaledConfig(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	sessions, err := m2.Recover(ctx, services)
	if err != nil {
		t.Fatalf("recover over torn tail: %v", err)
	}
	if len(sessions) != 1 {
		t.Fatalf("recovered %d sessions, want 1", len(sessions))
	}
	rep, err := sessions[0].Wait(ctx)
	if err != nil {
		t.Fatalf("recovered session failed: %v", err)
	}
	if rep.Statuses[workflow.DiamondMergeName] != hoclflow.StatusCompleted {
		t.Fatalf("merge is %v after torn-tail recovery", rep.Statuses[workflow.DiamondMergeName])
	}
}

func TestRecoverMultipleConcurrentSessions(t *testing.T) {
	services := diamondServices(nil)
	dir := t.TempDir()
	ctx := context.Background()

	m1, err := NewManager(journaledConfig(dir, 10))
	if err != nil {
		t.Fatal(err)
	}
	defs := []*workflow.Definition{
		workflow.Diamond(workflow.DefaultDiamondSpec(2, 2, false)),
		workflow.Diamond(workflow.DefaultDiamondSpec(3, 2, false)),
		workflow.Diamond(workflow.DefaultDiamondSpec(2, 3, false)),
	}
	for _, def := range defs {
		s, err := m1.Submit(ctx, def, services)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	m1.Close()

	m2, err := NewManager(journaledConfig(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	sessions, err := m2.Recover(ctx, services)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != len(defs) {
		t.Fatalf("recovered %d sessions, want %d", len(sessions), len(defs))
	}
	for _, s := range sessions {
		rep, err := s.Wait(ctx)
		if err != nil {
			t.Errorf("session %d failed: %v", s.ID(), err)
			continue
		}
		if rep.Statuses[workflow.DiamondMergeName] != hoclflow.StatusCompleted {
			t.Errorf("session %d merge is %v", s.ID(), rep.Statuses[workflow.DiamondMergeName])
		}
	}

	// New submissions on the recovered manager must not collide with the
	// recovered IDs.
	s, err := m2.Submit(ctx, defs[0], services)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range sessions {
		if s.ID() == old.ID() {
			t.Fatalf("new session reused recovered ID %d", s.ID())
		}
	}
	if _, err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverSkipsFinishedSessions(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(2, 2, false))
	services := diamondServices(nil)
	dir := t.TempDir()
	ctx := context.Background()

	m1, err := NewManager(journaledConfig(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m1.Submit(ctx, def, services)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2, err := NewManager(journaledConfig(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	sessions, err := m2.Recover(ctx, services)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 0 {
		t.Fatalf("recovered %d finished sessions, want 0", len(sessions))
	}
}

// TestManagerCloseLeavesSessionsResumable: a graceful shutdown
// (Manager.Close) is an operator stopping the process, not cancelling
// the workflows — the journal must stay resumable.
func TestManagerCloseLeavesSessionsResumable(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(4, 4, false))
	// Slow tasks keep the session safely mid-run when Close fires right
	// after Submit (a finished session reclaims its journal instead).
	services := agent.NewRegistry()
	services.RegisterNoop(5.0, "split", "work", "merge", "workalt")
	dir := t.TempDir()
	ctx := context.Background()

	m1, err := NewManager(journaledConfig(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Submit(ctx, def, services); err != nil {
		t.Fatal(err)
	}
	// Close mid-run: the session is cancelled with ErrManagerClosed and
	// its journal left on disk.
	m1.Close()

	m2, err := NewManager(journaledConfig(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	sessions, err := m2.Recover(ctx, services)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 {
		t.Fatalf("recovered %d sessions after Close, want 1", len(sessions))
	}
	rep, err := sessions[0].Wait(ctx)
	if err != nil {
		t.Fatalf("resumed session failed: %v", err)
	}
	if rep.Statuses[workflow.DiamondMergeName] != hoclflow.StatusCompleted {
		t.Fatalf("merge is %v after shutdown resume", rep.Statuses[workflow.DiamondMergeName])
	}
}

func TestRecoverEmitsSessionRecoveredEvent(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(2, 2, false))
	services := diamondServices(nil)
	dir := t.TempDir()
	ctx := context.Background()

	m1, err := NewManager(journaledConfig(dir, 8))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m1.Submit(ctx, def, services)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	wantID := s.ID()
	m1.Close()

	m2, err := NewManager(journaledConfig(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	events := m2.Events() // subscribe before recovery
	sessions, err := m2.Recover(ctx, services)
	if err != nil || len(sessions) != 1 {
		t.Fatalf("recover: %v (%d sessions)", err, len(sessions))
	}
	if _, err := sessions[0].Wait(ctx); err != nil {
		t.Fatal(err)
	}
	m2.Close()

	found := false
	for e := range events {
		if e.Kind == trace.SessionRecovered && e.SessionID == wantID {
			found = true
		}
	}
	if !found {
		t.Fatal("no session-recovered event on the manager bus")
	}
}

// logCrashConfig is a journaled log-broker manager's config: the
// journal freezes after crashAfter records (0 = never) and every service
// invocation crashes its agent with probability crashP.
func logCrashConfig(dir string, crashAfter int64, crashP float64, seed int64) Config {
	cfg := journaledConfig(dir, crashAfter)
	cfg.Broker = mq.KindLog
	cfg.Chaos = failure.ChaosConfig{Seed: seed, AgentCrashP: crashP}
	return cfg
}

// crashChain runs def on the log broker through a chain of manager
// crashes. The first manager's journal freezes at kills[0]. Each later
// manager recovers the session with agents crashing (AgentCrashP 0.5)
// and its journal freezing at the next kill point; the last manager has
// none and finishes the run. It returns the final report and the agent
// respawns of every recovering manager; ok is false when a kill point
// lay beyond its manager's journal, so there was nothing to recover.
func crashChain(t *testing.T, def *workflow.Definition, services *agent.Registry, seed int64, kills ...int64) (rep *Report, respawns int, ok bool) {
	t.Helper()
	dir := t.TempDir()
	ctx := context.Background()
	m, err := NewManager(logCrashConfig(dir, kills[0], 0, seed))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Submit(ctx, def, services)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx); err != nil {
		t.Fatalf("first run failed: %v", err)
	}
	m.Close()
	for i := 1; i <= len(kills); i++ {
		var crashAfter int64
		if i < len(kills) {
			crashAfter = kills[i]
		}
		m, err := NewManager(logCrashConfig(dir, crashAfter, 0.5, seed+int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		sessions, err := m.Recover(ctx, services)
		if err != nil {
			m.Close()
			t.Fatalf("recover %d: %v", i, err)
		}
		if len(sessions) == 0 {
			m.Close()
			return nil, respawns, false
		}
		rep, err = sessions[0].Wait(ctx)
		m.Close()
		if err != nil {
			t.Fatalf("recovered session %d failed: %v (report %v)", i, err, rep)
		}
		respawns += rep.Recoveries
	}
	return rep, respawns, true
}

// TestRecoverLogBrokerUnderAgentCrashes: on the log broker, a recovered
// session whose agents crash after the resume, and one whose recovering
// manager crashes as well, reach the uninterrupted run's results and
// statuses. The journal holds no inbox traffic: a resumed agent's first
// incarnation runs from its seeded state plus the traffic recoverSpecs
// makes its sources re-send, and a respawn after the resume replays the
// fresh broker's log (DESIGN.md "Replay and resume semantics"). The test
// fails unless some agent respawned after a resume, so it cannot pass
// without exercising that replay.
func TestRecoverLogBrokerUnderAgentCrashes(t *testing.T) {
	adapted := workflow.DefaultDiamondSpec(2, 2, false)
	adaptServices := diamondServices(nil)
	adaptServices.RegisterFailing("work", 0.1)
	montageServices := agent.NewRegistry()
	montage.RegisterServices(montageServices)
	cases := []struct {
		name     string
		def      *workflow.Definition
		services *agent.Registry
		kills    []int64 // first manager's kill points
		second   int64   // the recovering manager's kill point (double crash)
	}{
		{"diamond-3x3-fully", workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, true)), diamondServices(nil), []int64{6, 18}, 8},
		{"adapted-2x2", workflow.WithBodyReplacement(workflow.Diamond(adapted), adapted, false, "workalt"), adaptServices, []int64{6, 20}, 10},
		{"montage", montage.Workflow(), montageServices, []int64{40, 200}, 60},
	}
	seeds, nKills := []int64{1, 2}, 2
	if testing.Short() {
		seeds, nKills = seeds[:1], 1
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline, err := Run(context.Background(), tc.def, tc.services, logCrashConfig("", 0, 0, 1).withoutJournal())
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			runs, doubles, respawns := 0, 0, 0
			for _, seed := range seeds {
				for _, k := range tc.kills[:nKills] {
					for _, chain := range [][]int64{{k}, {k, tc.second}} {
						rep, n, ok := crashChain(t, tc.def, tc.services, seed, chain...)
						if !ok {
							continue
						}
						runs++
						if len(chain) == 2 {
							doubles++
						}
						respawns += n
						if !reflect.DeepEqual(rep.Results, baseline.Results) {
							t.Errorf("seed %d kills %v: results diverged:\n got %v\nwant %v", seed, chain, rep.Results, baseline.Results)
						}
						if !reflect.DeepEqual(rep.Statuses, baseline.Statuses) {
							t.Errorf("seed %d kills %v: statuses diverged:\n got %v\nwant %v", seed, chain, rep.Statuses, baseline.Statuses)
						}
					}
				}
			}
			t.Logf("%d recoveries (%d double-crash), %d post-resume respawns", runs, doubles, respawns)
			if doubles == 0 {
				t.Fatal("no double-crash chain landed inside both journals; the test is vacuous")
			}
			if respawns == 0 {
				t.Fatal("no agent respawned after a resume; the test is vacuous")
			}
		})
	}
}

// withoutJournal strips the journal config: the baseline runs of the
// harness are plain in-memory executions.
func (c Config) withoutJournal() Config {
	c.Journal = journal.Config{}
	return c
}
