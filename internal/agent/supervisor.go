package agent

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ginflow/internal/cluster"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// Supervisor is the agent host: it builds, starts and stops the agents
// of one host and keeps them running. When an incarnation dies of an
// injected crash, a replacement starts on the same node after the
// modelled restart delay ("when one SA fails ... another SA will be
// automatically started to replace it", §IV-B). With a log-backed broker
// the replacement replays its inbox; with a queue broker the pre-crash
// messages are lost and the paper's recovery guarantee does not hold,
// which is why the resilience evaluation runs on Kafka.
//
// One Supervisor serves every agent of its host (a whole in-process
// session, or one session's share on a worker node), so the recovery
// budget is per host. Crashes, respawns and suppressed duplicates are
// counted nowhere here: they are events in Config.Trace, and the
// session's recorder is their one record. Launch comes first; Start and
// Stop are safe for concurrent use, in any order.
type Supervisor struct {
	// Config is the template every incarnation is built from: Spec,
	// Node and Incarnation are filled in per incarnation, Node from
	// Config.Placements when that is set.
	Config Config
	// RestartDelay is the modelled respawn cost in model seconds.
	RestartDelay float64
	// MaxRecoveries bounds the respawns of the whole host.
	MaxRecoveries int

	firsts []*Agent // first incarnations, subscribed by Launch

	mu         sync.Mutex
	recoveries int                // respawns granted, against MaxRecoveries
	cancel     context.CancelFunc // set by Start
	stopped    bool

	live   atomic.Int64 // runs that have not returned
	exited cluster.Wake // signalled when the last run returns
}

// Launch builds the first incarnation of every spec and subscribes it
// before any agent of the host runs: a fast entry task must not publish
// results into the void (fatal on the volatile queue broker). If a
// subscription fails, the ones made so far are cancelled.
func (s *Supervisor) Launch(specs []workflow.AgentSpec) error {
	for _, spec := range specs {
		a := s.incarnation(spec, 0)
		if err := a.Subscribe(); err != nil {
			unsubscribe(s.firsts)
			return err
		}
		s.firsts = append(s.firsts, a)
	}
	return nil
}

// Start runs every first incarnation and its replacements on the clock
// until ctx ends or Stop, handing fail the error of an agent that fails
// for good while ctx is live. Only the first Start before any Stop does
// anything.
func (s *Supervisor) Start(ctx context.Context, fail func(error)) {
	clock := s.Config.Cluster.Clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil || s.stopped {
		return
	}
	ctx, s.cancel = clock.WithCancel(ctx)
	s.exited = cluster.NewWake(clock)
	s.live.Store(int64(len(s.firsts)))
	for _, a := range s.firsts {
		clock.Go(func() {
			defer func() {
				if s.live.Add(-1) == 0 {
					s.exited.Signal()
				}
			}()
			if err := s.run(ctx, a); err != nil && ctx.Err() == nil {
				fail(err)
			}
		})
	}
}

// Stop winds the host down; once it returns no agent records anything
// more. Before Start, it cancels the first incarnations' subscriptions
// and runs no agent. It waits through the clock: on a virtual clock the
// agents need the run token to observe the cancellation and unwind, and
// a wait inside the schedule resumes the caller at a deterministic
// point of it.
func (s *Supervisor) Stop() {
	s.mu.Lock()
	s.stopped = true
	cancel := s.cancel
	s.mu.Unlock()
	if cancel == nil {
		unsubscribe(s.firsts)
		return
	}
	cancel()
	for s.live.Load() > 0 {
		s.exited.Park(context.Background())
	}
	s.exited.Signal() // pass the wake-up on to a concurrent Stop
}

// unsubscribe cancels the inbox subscriptions of agents that never ran.
func unsubscribe(agents []*Agent) {
	for _, a := range agents {
		a.sub.Cancel()
	}
}

func (s *Supervisor) incarnation(spec workflow.AgentSpec, n int) *Agent {
	cfg := s.Config
	cfg.Spec = spec
	cfg.Node = cfg.Placements[spec.Task.Name]
	cfg.Incarnation = n
	return New(cfg)
}

// run drives first and its replacements until ctx ends (nil) or the
// task fails for good: a crash past the recovery budget, or an
// escalated invocation, which is recorded as AgentEscalated.
func (s *Supervisor) run(ctx context.Context, first *Agent) error {
	spec := first.cfg.Spec
	for a, n := first, 0; ; n++ {
		if n > 0 {
			a = s.incarnation(spec, n)
		}
		err := a.Run(ctx)
		switch {
		case err == nil:
			return nil // context ended: orderly shutdown
		case IsCrash(err):
			if !s.respawnAllowed() {
				return fmt.Errorf("supervisor: recovery budget exhausted: %w", err)
			}
			// Modelled respawn cost: detection + rescheduling
			// (interruptible: a cancelled session does not wait it out).
			if s.Config.Cluster.Clock().SleepCtx(ctx, s.RestartDelay) != nil {
				return nil
			}
			s.Config.Trace.Record(trace.AgentRecovered, spec.Task.Name, n+1, "")
		default:
			// A spent retry budget escalates: the host fails with the
			// structured cause chain instead of stalling on a silent agent.
			var esc *EscalationError
			if errors.As(err, &esc) {
				s.Config.Trace.Record(trace.AgentEscalated, esc.Task, esc.Incarnation,
					fmt.Sprintf("service %s: %d attempts: %v", esc.Service, esc.Attempts, esc.Cause))
			}
			return err
		}
	}
}

// respawnAllowed reports whether the budget allows one more respawn,
// counting it if so.
func (s *Supervisor) respawnAllowed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recoveries >= s.MaxRecoveries {
		return false
	}
	s.recoveries++
	return true
}
