package agent

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// Supervisor keeps the agents of one host running: when an incarnation
// dies of an injected crash, a replacement starts on the same node after
// the modelled restart delay ("when one SA fails ... another SA will be
// automatically started to replace it", §IV-B). With a log-backed broker
// the replacement replays its inbox; with a queue broker the pre-crash
// messages are lost and the paper's recovery guarantee does not hold,
// which is why the resilience evaluation runs on Kafka.
//
// One Supervisor serves every agent of its host (a whole in-process
// session, or one session's share on a worker node), so the recovery
// budget is per host. Crashes, respawns and suppressed duplicates are
// counted nowhere here: they are events in Config.Trace, and the
// session's recorder is their one record. It is safe for concurrent use.
type Supervisor struct {
	// Config is the template every incarnation is built from: Spec,
	// Node and Incarnation are filled in per incarnation, Node from
	// Config.Placements when that is set.
	Config Config
	// RestartDelay is the modelled respawn cost in model seconds.
	RestartDelay float64
	// MaxRecoveries bounds the respawns of the whole host.
	MaxRecoveries int

	mu         sync.Mutex
	recoveries int // respawns granted, against MaxRecoveries
}

// New builds incarnation 0 of spec. The caller subscribes it before any
// agent of the host runs, then hands it to Run.
func (s *Supervisor) New(spec workflow.AgentSpec) *Agent { return s.incarnation(spec, 0) }

func (s *Supervisor) incarnation(spec workflow.AgentSpec, n int) *Agent {
	cfg := s.Config
	cfg.Spec = spec
	cfg.Node = cfg.Placements[spec.Task.Name]
	cfg.Incarnation = n
	return New(cfg)
}

// Run drives first and its replacements until ctx ends (nil) or the
// task fails for good: a crash past the recovery budget, or an
// escalated invocation, which is recorded as AgentEscalated.
func (s *Supervisor) Run(ctx context.Context, first *Agent) error {
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
