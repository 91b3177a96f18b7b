package core

import (
	"context"
	"fmt"
	"time"

	"ginflow/internal/hocl"
	"ginflow/internal/trace"
	"ginflow/internal/transport"
	"ginflow/internal/workflow"
)

// remoteDoneTimeout bounds the wait for the workers' DONE reports at
// session teardown, in real time: the model clock scale makes a healthy
// wind-down near-instant, so a worker that stays silent this long is
// gone and the session proceeds with the events it has.
const remoteDoneTimeout = 10 * time.Second

// remoteHost is the session side of out-of-process enactment: the
// transport RemoteSession, whose hooks (see launchRemote) record the
// workers' trace events into the session recorder and funnel their
// failures. A worker that reconnects needs nothing from the session: the
// reliable link replays every unacknowledged frame both ways, status
// pushes included, and the space's version gate drops whatever arrives
// stale or twice.
type remoteHost struct {
	rs *transport.RemoteSession
}

// launchRemote fans the session's tasks out over the joined worker
// nodes (round-robin over the sorted node IDs, so the assignment is
// deterministic for a given fleet) and barriers on every worker's READY
// — the remote form of the subscribe-before-reduce ordering: a worker
// reports READY only once all its agents' inbox subscriptions are live
// on the manager's broker. A recovered session ships each task's
// recovered local solution, which the worker builds the task's first
// incarnation from. A failed barrier stops the workers that did build
// their share before the session gives up on them.
func (s *Session) launchRemote(runCtx context.Context, fail func(error), spaceTopic, topicPrefix string, specs []workflow.AgentSpec) (*remoteHost, error) {
	srv := s.mgr.server
	ids := srv.NodeIDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: remote enactment: no worker nodes joined")
	}
	cfg := s.mgr.cfg
	assigns := map[uint64]transport.Assignment{}
	for i := range specs {
		id := ids[i%len(ids)]
		a, ok := assigns[id]
		if !ok {
			a = transport.Assignment{
				SpaceTopic:    spaceTopic,
				TopicPrefix:   topicPrefix,
				Workflow:      s.plan.JSON(),
				RestartDelay:  cfg.RestartDelay,
				MaxRecoveries: cfg.MaxRecoveries,
				ScaleNS:       int64(s.mgr.cluster.Clock().Scale()),
				Chaos:         cfg.Chaos,
				Retry:         cfg.Retry,
			}
		}
		name := specs[i].Task.Name
		a.Tasks = append(a.Tasks, name)
		if s.recovered {
			if a.Locals == nil {
				a.Locals = map[string][]byte{}
			}
			a.Locals[name] = hocl.EncodeAtoms(specs[i].Local.Atoms())
		}
		assigns[id] = a
	}
	// The hooks run on the transport's read loops and must not block:
	// recording and funnelling both return at once.
	// A worker's events precede its DONE on the ordered link, so the
	// recorder holds every one of them when stop returns.
	rs, err := srv.StartRemote(uint64(s.id), assigns, transport.SessionHooks{
		Event: func(e transport.NodeEvent) {
			s.recorder.Record(trace.Kind(e.Kind), e.Task, e.Incarnation, e.Info)
		},
		Fail: fail,
	})
	if err != nil {
		return nil, fmt.Errorf("core: remote enactment: %w", err)
	}
	// A worker that cannot build its agents reports FAIL instead of
	// READY; the Fail hook funnels it, which ends the barrier.
	rh := &remoteHost{rs: rs}
	if err := rs.WaitReady(runCtx); err != nil {
		rh.Stop()
		return nil, err
	}
	return rh, nil
}

// Start tells the workers to run their agents; their failures reach
// the session through the Fail hook set at launch.
func (rh *remoteHost) Start(context.Context, func(error)) { rh.rs.Start() }

// Stop winds the workers down, waits for their DONE reports (giving up
// on a worker that never answers within remoteDoneTimeout) and closes
// the session. A worker that holds no share of the session answers
// DONE at once.
func (rh *remoteHost) Stop() {
	rh.rs.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), remoteDoneTimeout)
	defer cancel()
	_ = rh.rs.WaitDone(ctx) // a silent worker's events are lost with it
	rh.rs.Close()
}
