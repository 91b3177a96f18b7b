package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/mq"
	"ginflow/internal/workflow"
)

// TestSessionFailureFunnel drives every way a distributed session can
// end early — an escalated invocation, a spent recovery budget, an
// explicit Cancel and a timeout — on both clocks. Each must end the
// session promptly with its own error chain (a failure must not be
// re-labelled as a cancellation, nor a cancellation as a stall), and
// each must leave nothing behind on the shared platform: no broker
// topic under the session's namespace and no claimed node slot.
func TestSessionFailureFunnel(t *testing.T) {
	clocks := []struct {
		name    string
		cluster cluster.Config
	}{
		{"real", cluster.Config{Nodes: 4, CoresPerNode: 24, Scale: 50 * time.Microsecond}},
		{"virtual", virtualCluster(4, 1)},
	}
	type setup struct {
		cfg      Config
		services *agent.Registry
		opts     []SubmitOption
		// during runs after Submit, before Wait.
		during func(t *testing.T, s *Session)
	}
	cases := []struct {
		name string
		make func() setup
		// within bounds Wait's real time.
		within time.Duration
		check  func(t *testing.T, rep *Report, err error)
	}{
		{
			name: "escalation",
			make: func() setup {
				return setup{
					cfg: Config{
						Broker: mq.KindQueue,
						Chaos: failure.ChaosConfig{
							Seed:           7,
							InvokeErrorP:   1,
							MaxConsecutive: -1,
						},
						Retry: failure.RetryConfig{MaxAttempts: 2, BackoffBase: 0.01},
					},
					services: diamondServices(nil),
				}
			},
			within: 30 * time.Second,
			check: func(t *testing.T, _ *Report, err error) {
				requireChain(t, err, failure.ErrRetriesExhausted, failure.ErrInjected)
				rejectChain(t, err, ErrCancelled, ErrStalled)
				var esc *agent.EscalationError
				if !errors.As(err, &esc) {
					t.Errorf("error chain misses *agent.EscalationError: %v", err)
				}
			},
		},
		{
			name: "recovery budget exhausted",
			make: func() setup {
				return setup{
					cfg: Config{
						Broker:        mq.KindLog,
						MaxRecoveries: 1,
						Chaos:         failure.ChaosConfig{AgentCrashP: 1, AgentCrashAfter: 0.05},
					},
					services: diamondServices(nil),
				}
			},
			within: 30 * time.Second,
			check: func(t *testing.T, rep *Report, err error) {
				rejectChain(t, err, ErrCancelled, ErrStalled, failure.ErrRetriesExhausted)
				var crash *agent.CrashError
				if !errors.As(err, &crash) {
					t.Errorf("error chain misses *agent.CrashError: %v", err)
				}
				if !strings.Contains(err.Error(), "recovery budget exhausted") {
					t.Errorf("error does not name the spent budget: %v", err)
				}
				if rep == nil || rep.Recoveries < 1 || rep.Failures <= rep.Recoveries {
					t.Errorf("report %+v: want failures > recoveries >= 1", rep)
				}
			},
		},
		{
			name: "cancel mid-run",
			make: func() setup {
				// Every mesh invocation blocks until the test has
				// cancelled, so the cancellation lands mid-run on either
				// clock.
				started, gate := make(chan struct{}), make(chan struct{})
				var once sync.Once
				services := diamondServices(nil)
				services.RegisterFunc("work", 0.1, func([]hocl.Atom) (hocl.Atom, error) {
					once.Do(func() { close(started) })
					<-gate
					return hocl.Str("out"), nil
				})
				return setup{
					cfg:      Config{Broker: mq.KindLog},
					services: services,
					during: func(t *testing.T, s *Session) {
						defer close(gate)
						select {
						case <-started:
						case <-time.After(30 * time.Second):
							t.Fatal("no mesh invocation started")
						}
						s.Cancel(nil)
					},
				}
			},
			within: 30 * time.Second,
			check: func(t *testing.T, _ *Report, err error) {
				requireChain(t, err, ErrCancelled)
				rejectChain(t, err, ErrStalled, failure.ErrRetriesExhausted)
			},
		},
		{
			name: "timeout",
			make: func() setup {
				// A failing mesh service without a declared adaptation
				// stalls the run by design.
				services := diamondServices(nil)
				services.RegisterFailing("work", 0.1)
				return setup{
					cfg:      Config{Broker: mq.KindQueue},
					services: services,
					opts:     []SubmitOption{SubmitTimeout(300 * time.Millisecond)},
				}
			},
			within: 20 * time.Second,
			check: func(t *testing.T, _ *Report, err error) {
				requireChain(t, err, ErrStalled)
				rejectChain(t, err, ErrCancelled, failure.ErrRetriesExhausted)
			},
		},
	}
	for _, ck := range clocks {
		for _, tc := range cases {
			t.Run(ck.name+"/"+tc.name, func(t *testing.T) {
				su := tc.make()
				cfg := su.cfg
				cfg.Executor = executor.KindSSH
				cfg.Cluster = ck.cluster
				cfg.Timeout = time.Minute
				m := newTestManager(t, cfg)
				def := workflow.Diamond(workflow.DefaultDiamondSpec(2, 2, false))
				start := time.Now()
				s, err := m.Submit(context.Background(), def, su.services, su.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if su.during != nil {
					su.during(t, s)
				}
				rep, err := s.Wait(context.Background())
				if elapsed := time.Since(start); elapsed > tc.within {
					t.Errorf("session took %v, want under %v", elapsed, tc.within)
				}
				if err == nil {
					t.Fatalf("session completed: %v", rep)
				}
				tc.check(t, rep, err)
				if got := m.broker.Topics(s.prefix); len(got) != 0 {
					t.Errorf("broker retains the session's topics: %v", got)
				}
				for _, n := range m.Cluster().Nodes() {
					if n.InUse() != 0 {
						t.Errorf("node %d holds %d slots after the session ended", n.ID, n.InUse())
					}
				}
			})
		}
	}
}

// requireChain fails unless err matches every target through errors.Is.
func requireChain(t *testing.T, err error, targets ...error) {
	t.Helper()
	for _, target := range targets {
		if !errors.Is(err, target) {
			t.Errorf("error chain misses %v: %v", target, err)
		}
	}
}

// rejectChain fails if err matches any target through errors.Is.
func rejectChain(t *testing.T, err error, targets ...error) {
	t.Helper()
	for _, target := range targets {
		if errors.Is(err, target) {
			t.Errorf("error chain wrongly matches %v: %v", target, err)
		}
	}
}
