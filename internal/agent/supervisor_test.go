package agent

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"ginflow/internal/hocl"
	"ginflow/internal/mq"
	"ginflow/internal/obs"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// liveBroker counts the subscriptions it has handed out and that are
// not cancelled yet. It delivers nothing.
type liveBroker struct{ live atomic.Int64 }

func (b *liveBroker) PublishAtoms(string, []hocl.Atom) error { return nil }

func (b *liveBroker) Subscribe(string) (*mq.Subscription, error) {
	b.live.Add(1)
	sub, _ := mq.NewPushSubscription(func() { b.live.Add(-1) })
	return sub, nil
}

// launched returns a supervisor of the T1 -> T2 pair whose first
// incarnations are built and subscribed on a liveBroker, with its own
// recorder and metrics registry.
func launched(t *testing.T) (*Supervisor, *liveBroker, *trace.Recorder, *Metrics) {
	t.Helper()
	clus := testCluster()
	broker := &liveBroker{}
	rec := trace.NewRecorder(clus.Clock())
	met := NewMetrics(obs.NewRegistry())
	s := &Supervisor{Config: Config{
		Broker: broker, Cluster: clus, Services: noopRegistry(0.01, "s1", "s2"),
		Trace: rec, Metrics: met,
	}}
	p, c := twoAgentSpecs(t)
	if err := s.Launch([]workflow.AgentSpec{p, c}); err != nil {
		t.Fatal(err)
	}
	if got := broker.live.Load(); got != 2 {
		t.Fatalf("%d live subscriptions after Launch, want 2", got)
	}
	return s, broker, rec, met
}

// TestSupervisorStopBeforeStartRunsNothing: a host stopped before it
// started releases its agents' subscriptions and runs none of them,
// however often it is stopped and whether or not a Start follows.
func TestSupervisorStopBeforeStartRunsNothing(t *testing.T) {
	fail := func(err error) { t.Errorf("agent failed: %v", err) }
	for _, tc := range []struct {
		name  string
		steps func(s *Supervisor)
	}{
		{"stop", func(s *Supervisor) { s.Stop() }},
		{"stop twice", func(s *Supervisor) { s.Stop(); s.Stop() }},
		{"start after stop", func(s *Supervisor) {
			s.Stop()
			s.Start(context.Background(), fail)
			s.Stop()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, broker, rec, met := launched(t)
			tc.steps(s)
			if n := len(rec.Events()); n != 0 {
				t.Errorf("%d events recorded: %v", n, rec.Events())
			}
			if n := met.Deployed.Value(); n != 0 {
				t.Errorf("%d deployments counted", n)
			}
			if n := broker.live.Load(); n != 0 {
				t.Errorf("%d subscriptions left", n)
			}
		})
	}
}

// TestSupervisorConcurrentStops: two Stops racing on a running host
// both return once every agent has unwound.
func TestSupervisorConcurrentStops(t *testing.T) {
	s, broker, _, met := launched(t)
	s.Start(context.Background(), func(err error) { t.Errorf("agent failed: %v", err) })
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Stop()
		}()
	}
	wg.Wait()
	if n := met.Deployed.Value(); n != 2 {
		t.Errorf("%d deployments counted, want 2", n)
	}
	if n := broker.live.Load(); n != 0 {
		t.Errorf("%d subscriptions left after Stop", n)
	}
}
