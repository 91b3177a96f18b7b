package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/executor"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
	"ginflow/internal/obs"
	"ginflow/internal/trace"
	"ginflow/internal/transport"
	"ginflow/internal/workflow"
)

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestManagerConcurrentMixedSessions multiplexes a mixed bag of
// workflows — diamonds, sequences and an adaptive diamond — over one
// manager and checks every per-run report independently: correct
// statuses and results, adaptation recorded only where declared, and no
// cross-run molecule leakage (each session's space holds exactly its own
// tasks).
func TestManagerConcurrentMixedSessions(t *testing.T) {
	m := newTestManager(t, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(8),
	})

	type runCase struct {
		name    string
		def     *workflow.Definition
		svc     *agent.Registry
		exits   []string
		adapted bool
	}
	var cases []runCase
	for i := 0; i < 3; i++ {
		cases = append(cases, runCase{
			name:  fmt.Sprintf("diamond-%d", i),
			def:   workflow.Diamond(workflow.DefaultDiamondSpec(2+i, 2, false)),
			svc:   diamondServices(nil),
			exits: []string{workflow.DiamondMergeName},
		})
	}
	for i := 0; i < 3; i++ {
		svc := agent.NewRegistry()
		svc.RegisterNoop(0.1, "s")
		cases = append(cases, runCase{
			name:  fmt.Sprintf("sequence-%d", i),
			def:   workflow.Sequence(3, "s", "in"),
			svc:   svc,
			exits: []string{"S3"},
		})
	}
	for i := 0; i < 2; i++ {
		spec := workflow.DefaultDiamondSpec(2, 2, false)
		def := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt")
		last, _ := def.TaskByID(workflow.LastMeshTask(spec))
		last.Service = "flaky"
		svc := diamondServices(nil)
		svc.RegisterFailing("flaky", 0.1)
		cases = append(cases, runCase{
			name:    fmt.Sprintf("adaptive-%d", i),
			def:     def,
			svc:     svc,
			exits:   []string{workflow.DiamondMergeName},
			adapted: true,
		})
	}

	sessions := make([]*Session, len(cases))
	for i, c := range cases {
		s, err := m.Submit(context.Background(), c.def, c.svc)
		if err != nil {
			t.Fatalf("%s: submit: %v", c.name, err)
		}
		sessions[i] = s
	}
	if got := m.Active(); got == 0 {
		t.Error("no active sessions after submits")
	}

	var wg sync.WaitGroup
	for i := range cases {
		wg.Add(1)
		go func(c runCase, s *Session) {
			defer wg.Done()
			rep, err := s.Wait(context.Background())
			if err != nil {
				t.Errorf("%s: wait: %v (report %v)", c.name, err, rep)
				return
			}
			for _, exit := range c.exits {
				if got := rep.Statuses[exit]; got != hoclflow.StatusCompleted {
					t.Errorf("%s: exit %s = %v", c.name, exit, got)
				}
			}
			if c.adapted != (len(rep.Adaptations) == 1) {
				t.Errorf("%s: adaptations = %v", c.name, rep.Adaptations)
			}
			if rep.Messages == 0 {
				t.Errorf("%s: no messages attributed to session", c.name)
			}
			// No cross-run molecule leakage: the session's space saw
			// exactly (a subset of) its own task IDs.
			own := map[string]bool{}
			for _, id := range c.def.AllTaskIDs() {
				own[id] = true
			}
			for name := range s.space.TaskStates() {
				if !own[name] {
					t.Errorf("%s: foreign task %q leaked into session space", c.name, name)
				}
			}
		}(cases[i], sessions[i])
	}
	wg.Wait()

	if got := m.Active(); got != 0 {
		t.Errorf("active sessions after completion = %d", got)
	}
	// All sessions purged their namespaces: the shared broker retains no
	// per-session topic state.
	for _, s := range sessions {
		if n := m.broker.PurgeTopics(s.prefix); n != 0 {
			t.Errorf("session %d left %d topics behind", s.ID(), n)
		}
	}
}

// TestManagerSessionIsolationMessages checks the per-session message
// accounting: two concurrent identical runs each see their own traffic,
// not the shared broker's global counter.
func TestManagerSessionIsolationMessages(t *testing.T) {
	m := newTestManager(t, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(6),
		Metrics:  obs.NewRegistry(),
	})
	var handles []*Session
	for i := 0; i < 2; i++ {
		s, err := m.Submit(context.Background(), workflow.Diamond(workflow.DefaultDiamondSpec(2, 2, false)), diamondServices(nil))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, s)
	}
	var counts []int64
	for _, s := range handles {
		rep, err := s.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, rep.Messages)
	}
	total := m.reg.Counter("ginflow_mq_published_total", "").Value()
	if counts[0]+counts[1] != total {
		t.Errorf("per-session messages %v do not sum to broker total %d", counts, total)
	}
}

// TestManagerCancelReleasesResources cancels a long run mid-flight: Wait
// must return an ErrCancelled error carrying the cause, node slots must
// return to the pool and the session's broker topics must be purged.
func TestManagerCancelReleasesResources(t *testing.T) {
	m := newTestManager(t, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindLog, // log broker: purge must also drop retained logs
		Cluster:  fastCluster(4),
	})
	def := workflow.Sequence(4, "slow", "in")
	svc := agent.NewRegistry()
	svc.RegisterNoop(1e5, "slow") // 1e5 model s ≈ 5 real s per task: cancel lands mid-run

	s, err := m.Submit(context.Background(), def, svc)
	if err != nil {
		t.Fatal(err)
	}
	// Let deployment finish and the first agent start.
	deadline := time.Now().Add(10 * time.Second)
	for m.broker.PublishedPrefix(s.prefix) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never published")
		}
		time.Sleep(time.Millisecond)
	}

	cause := errors.New("operator intervention")
	s.Cancel(cause)
	rep, err := s.Wait(context.Background())
	if err == nil {
		t.Fatalf("cancelled session completed: %v", rep)
	}
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("err = %v, want ErrCancelled", err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("err = %v, want wrapped cause", err)
	}

	for _, n := range m.Cluster().Nodes() {
		if n.InUse() != 0 {
			t.Errorf("node %v still holds %d slots after cancel", n, n.InUse())
		}
	}
	if n := m.broker.PurgeTopics(s.prefix); n != 0 {
		t.Errorf("%d topics not purged after cancel", n)
	}
	if got := m.Active(); got != 0 {
		t.Errorf("active = %d after cancel", got)
	}
}

// TestManagerEventsStream subscribes to a session's live event stream
// and checks it delivers a completed-task event for every task, then
// closes.
func TestManagerEventsStream(t *testing.T) {
	m := newTestManager(t, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(4),
	})
	def := workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, false))
	s, err := m.Submit(context.Background(), def, diamondServices(nil))
	if err != nil {
		t.Fatal(err)
	}
	completed := map[string]bool{}
	var invoked int
	for e := range s.Events() {
		switch e.Kind {
		case trace.TaskCompleted:
			completed[e.Task] = true
		case trace.ServiceInvoked:
			invoked++
		}
	}
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	for _, id := range def.AllTaskIDs() {
		if !completed[id] {
			t.Errorf("no task-completed event for %s", id)
		}
	}
	if invoked != def.TaskCount() {
		t.Errorf("service-invoked events = %d, want %d", invoked, def.TaskCount())
	}
	// Subscribing after completion yields an already-closed channel.
	if _, open := <-s.Events(); open {
		t.Error("post-completion subscription delivered an event")
	}
	// Live streaming must not have retained a timeline (no SubmitTrace).
	if rep, _ := s.Wait(context.Background()); len(rep.Events) != 0 {
		t.Errorf("Report.Events retained %d events without SubmitTrace", len(rep.Events))
	}
}

// TestManagerSubmitTraceRetainsTimeline: SubmitTrace keeps Report.Events
// while streaming still works.
func TestManagerSubmitTraceRetainsTimeline(t *testing.T) {
	m := newTestManager(t, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(2),
	})
	svc := agent.NewRegistry()
	svc.RegisterNoop(0.1, "s")
	s, err := m.Submit(context.Background(), workflow.Sequence(2, "s", "in"), svc, SubmitTrace())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) == 0 {
		t.Error("SubmitTrace retained no events")
	}
}

// TestManagerSubmitUnknownService: submissions referencing unregistered
// services fail fast with ErrUnknownService, before any deployment.
func TestManagerSubmitUnknownService(t *testing.T) {
	m := newTestManager(t, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(2),
	})
	def := workflow.Sequence(2, "s", "in")
	def.Tasks[1].Service = "missing"
	svc := agent.NewRegistry()
	svc.RegisterNoop(0, "s")
	_, err := m.Submit(context.Background(), def, svc)
	if !errors.Is(err, ErrUnknownService) {
		t.Errorf("err = %v, want ErrUnknownService", err)
	}
	// Replacement-task services are validated too.
	spec := workflow.DefaultDiamondSpec(2, 2, false)
	adef := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "unregistered-alt")
	reg := agent.NewRegistry()
	reg.RegisterNoop(0.1, "split", "work", "merge")
	if _, err := m.Submit(context.Background(), adef, reg); !errors.Is(err, ErrUnknownService) {
		t.Errorf("replacement err = %v, want ErrUnknownService", err)
	}
}

// TestManagerStalledTimeout: a session that cannot finish inside its
// (per-submit) timeout fails with ErrStalled and still yields a partial
// report.
func TestManagerStalledTimeout(t *testing.T) {
	m := newTestManager(t, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(2),
	})
	svc := agent.NewRegistry()
	svc.RegisterNoop(1e6, "slow") // 1e6 model s = 50 real s at the test scale
	s, err := m.Submit(context.Background(), workflow.Sequence(2, "slow", "in"), svc,
		SubmitTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Wait(context.Background())
	if err == nil {
		t.Fatal("stalled session reported success")
	}
	if !errors.Is(err, ErrStalled) {
		t.Errorf("err = %v, want ErrStalled", err)
	}
	if rep == nil {
		t.Error("no partial report on stall")
	}
}

// TestManagerClosedRejectsSubmit: Close drains active sessions and
// subsequent submissions fail with ErrManagerClosed.
func TestManagerClosedRejectsSubmit(t *testing.T) {
	m, err := NewManager(Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := agent.NewRegistry()
	svc.RegisterNoop(1e5, "slow")
	s, err := m.Submit(context.Background(), workflow.Sequence(2, "slow", "in"), svc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := s.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
		t.Errorf("session err after close = %v, want ErrCancelled", err)
	}
	if _, err := m.Submit(context.Background(), workflow.Sequence(1, "slow", "in"), svc); !errors.Is(err, ErrManagerClosed) {
		t.Errorf("submit after close = %v, want ErrManagerClosed", err)
	}
}

// TestManagerCentralizedSessions: the centralized executor multiplexes
// through the same Manager surface (sessions just run on private
// interpreters).
func TestManagerCentralizedSessions(t *testing.T) {
	m := newTestManager(t, Config{
		Executor: executor.KindCentralized,
		Cluster:  fastCluster(2),
	})
	svc := agent.NewRegistry()
	svc.RegisterNoop(0.1, "s")
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, err := m.Submit(context.Background(), workflow.Sequence(2, "s", "in"), svc)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	for _, s := range sessions {
		rep, err := s.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Statuses["S2"] != hoclflow.StatusCompleted {
			t.Errorf("S2 = %v", rep.Statuses["S2"])
		}
	}
}

// TestManagerRunCompatWrapper: the one-shot Run path still behaves like
// the original engine entry point.
func TestManagerRunCompatWrapper(t *testing.T) {
	rep := runDiamond(t, 2, 2, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(4),
	})
	if rep.Agents != 2*2+2 {
		t.Errorf("agents = %d", rep.Agents)
	}
}

// TestManagerHandleStatusLive polls Status mid-run: statuses must come
// from the session's own space and converge to all-completed.
func TestManagerHandleStatusLive(t *testing.T) {
	m := newTestManager(t, Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindQueue,
		Cluster:  fastCluster(4),
	})
	def := workflow.Diamond(workflow.DefaultDiamondSpec(2, 2, false))
	s, err := m.Submit(context.Background(), def, diamondServices(nil))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); len(st) != len(def.AllTaskIDs()) {
		t.Errorf("status map size = %d, want %d", len(st), len(def.AllTaskIDs()))
	}
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for id, st := range s.Status() {
		if st != hoclflow.StatusCompleted {
			t.Errorf("task %s = %v after completion", id, st)
		}
	}
}

// TestCancelledSessionLeavesNoTopicsOnAnyShard is the sharded-broker
// namespace-cleanup regression test: sessions pin to broker shards by
// namespace hash, so teardown must purge the session's topics from
// whichever shard holds them. Several concurrent sessions (spread over a
// 4-shard broker) are cancelled mid-run; afterwards no shard may retain
// any topic of any session. It runs on the virtual clock: the test
// holds the run token while it submits, advances model time until every
// session has published, and cancels from inside the schedule, so
// "mid-run" is a model instant rather than a race against a wall-clock
// deadline.
func TestCancelledSessionLeavesNoTopicsOnAnyShard(t *testing.T) {
	m := newTestManager(t, Config{
		Executor:     executor.KindSSH,
		Broker:       mq.KindLog, // retained logs are the easiest state to leak
		BrokerShards: 4,
		Cluster:      virtualCluster(8, 1),
		Metrics:      obs.NewRegistry(),
	})
	broker := m.broker
	// BrokerShards reaches the manager's broker: its per-shard gauges
	// run from shard 0 to shard 3.
	var expo strings.Builder
	if err := m.reg.WriteProm(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), `ginflow_mq_pending_messages{shard="3"}`) || strings.Contains(expo.String(), `shard="4"`) {
		t.Fatalf("broker is not 4-sharded:\n%s", expo.String())
	}

	clock := m.Cluster().Clock()
	clock.Enter()
	var sessions []*Session
	for i := 0; i < 6; i++ {
		// Long diamonds so cancellation lands mid-run.
		def := workflow.Diamond(workflow.DefaultDiamondSpec(2, 30, false))
		s, err := m.Submit(context.Background(), def, diamondServices(nil))
		if err != nil {
			clock.Exit()
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	// Let traffic flow so every session has created topics on its shard.
	for _, s := range sessions {
		for broker.PublishedPrefix(s.prefix) == 0 {
			if clock.Now() > 1000 {
				clock.Exit()
				t.Fatalf("session %s produced no traffic in %v model seconds", s.prefix, clock.Now())
			}
			clock.SleepCtx(context.Background(), 0.1)
		}
	}
	for _, s := range sessions {
		s.Cancel(nil)
	}
	clock.Exit()
	for _, s := range sessions {
		if _, err := s.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
			t.Errorf("wait after cancel: %v", err)
		}
	}
	for _, s := range sessions {
		ns := s.prefix
		if n := broker.PurgeTopics(ns); n != 0 {
			t.Errorf("broker retains %d topics of cancelled session %s", n, ns)
		}
	}
}

// TestManagerCloseLeavesNothing is the leak gate around Manager.Close:
// after one completed and one cancelled session, on either clock and
// either broker, and with the agents on two joined workers, Close
// returns the process to its goroutine count before NewManager and the
// broker holds no topic.
func TestManagerCloseLeavesNothing(t *testing.T) {
	type leakCase struct {
		name    string
		cfg     Config
		workers int
	}
	var cases []leakCase
	for _, virtual := range []bool{false, true} {
		for _, kind := range []mq.Kind{mq.KindQueue, mq.KindLog} {
			clus := fastCluster(4)
			clus.Virtual = virtual
			cases = append(cases, leakCase{
				name: fmt.Sprintf("virtual=%v/%s", virtual, kind),
				cfg:  Config{Executor: executor.KindSSH, Broker: kind, Cluster: clus},
			})
		}
	}
	remote := fastCluster(4)
	remote.Virtual = false
	cases = append(cases, leakCase{
		name:    "remote",
		cfg:     Config{Executor: executor.KindSSH, Broker: mq.KindLog, Cluster: remote, Listen: "127.0.0.1:0"},
		workers: 2,
	})
	// Slow mesh services keep the second session running until it is
	// cancelled.
	services := agent.NewRegistry()
	services.RegisterNoop(0.1, "split", "merge")
	services.RegisterNoop(100, "work")

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m, err := NewManager(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var nodes []*transport.Node
			for i := 0; i < tc.workers; i++ {
				n, err := transport.Join(m.ListenerAddr(), transport.NodeConfig{Name: "leak", Services: services})
				if err != nil {
					m.Close()
					t.Fatal(err)
				}
				nodes = append(nodes, n)
			}

			done, err := m.Submit(context.Background(), workflow.Diamond(workflow.DefaultDiamondSpec(2, 1, false)), services)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := done.Wait(context.Background()); err != nil {
				t.Fatalf("completed session: %v", err)
			}
			// Cancel the second session once its agents are publishing.
			clock, broker := m.Cluster().Clock(), m.broker
			clock.Enter()
			cancelled, err := m.Submit(context.Background(), workflow.Diamond(workflow.DefaultDiamondSpec(2, 3, false)), services)
			if err != nil {
				clock.Exit()
				t.Fatal(err)
			}
			for broker.PublishedPrefix(cancelled.prefix) == 0 && clock.Now() < 1000 {
				clock.SleepCtx(context.Background(), 0.1)
			}
			cancelled.Cancel(nil)
			clock.Exit()
			if _, err := cancelled.Wait(context.Background()); !errors.Is(err, ErrCancelled) {
				t.Errorf("cancelled session: %v", err)
			}

			for _, n := range nodes {
				n.Close()
			}
			m.Close()
			if n := broker.PurgeTopics(""); n != 0 {
				t.Errorf("broker holds %d topics after Close", n)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				buf := make([]byte, 1<<16)
				t.Errorf("goroutines: %d before NewManager, %d after Close\n%s", before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}
