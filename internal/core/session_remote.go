package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ginflow/internal/space"
	"ginflow/internal/trace"
	"ginflow/internal/transport"
	"ginflow/internal/workflow"
)

// remoteDoneTimeout bounds the wait for the workers' DONE reports at
// session teardown, in real time: the model clock scale makes a healthy
// wind-down near-instant, so a worker that stays silent this long is
// gone and the session proceeds with the stats it has.
const remoteDoneTimeout = 10 * time.Second

// remoteHost is the session side of out-of-process enactment: it owns
// the transport RemoteSession, forwards the workers' trace events into
// the session recorder and their failures into the session's failure
// funnel, and translates worker reconnects into space resync requests
// for that worker's tasks.
type remoteHost struct {
	rs       *transport.RemoteSession
	tasksOf  map[uint64][]string
	sp       *space.Space
	recorder *trace.Recorder
	fail     context.CancelCauseFunc

	stopC chan struct{}
	doneC chan struct{}
	once  sync.Once
}

// launchRemote fans the session's tasks out over the joined worker
// nodes (round-robin over the sorted node IDs, so the assignment is
// deterministic for a given fleet) and barriers on every worker's READY
// — the remote form of the subscribe-before-reduce ordering: a worker
// reports READY only once all its agents' inbox subscriptions are live
// on the manager's broker.
func (s *Session) launchRemote(runCtx context.Context, fail context.CancelCauseFunc, spaceTopic, topicPrefix string, specs []workflow.AgentSpec) (*remoteHost, error) {
	srv := s.mgr.server
	ids := srv.NodeIDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: remote enactment: no worker nodes joined")
	}
	defJSON, err := s.def.JSON()
	if err != nil {
		return nil, err
	}
	cfg := s.mgr.cfg
	tasksOf := map[uint64][]string{}
	for i := range specs {
		id := ids[i%len(ids)]
		tasksOf[id] = append(tasksOf[id], specs[i].Task.Name)
	}
	assigns := map[uint64]transport.Assignment{}
	for id, tasks := range tasksOf {
		assigns[id] = transport.Assignment{
			SpaceTopic:    spaceTopic,
			TopicPrefix:   topicPrefix,
			Workflow:      defJSON,
			Tasks:         tasks,
			FailureP:      s.sub.FailureP,
			FailureT:      s.sub.FailureT,
			RestartDelay:  cfg.RestartDelay,
			MaxRecoveries: cfg.MaxRecoveries,
			// Offsetting the platform seed by the session ID gives each
			// session its own deterministic worker-side stream (duration
			// draws, crash plans), mirroring the manager's shared RNG
			// being advanced per session.
			Seed:    cfg.Cluster.Seed + s.id,
			ScaleNS: int64(s.mgr.cluster.Clock().Scale()),
			Chaos:   cfg.Chaos,
			Retry:   cfg.Retry,
		}
	}
	rs, err := srv.StartRemote(uint64(s.id), assigns)
	if err != nil {
		return nil, fmt.Errorf("core: remote enactment: %w", err)
	}
	rh := &remoteHost{
		rs: rs, tasksOf: tasksOf, sp: s.space, recorder: s.recorder, fail: fail,
		stopC: make(chan struct{}), doneC: make(chan struct{}),
	}
	go rh.forward()

	// A worker that cannot build its agents reports FAIL instead of
	// READY; the forwarder funnels it, which ends the barrier.
	if err := rs.WaitReady(runCtx); err != nil {
		rh.close()
		return nil, err
	}
	return rh, nil
}

// forward pumps the workers' event, failure and reconnect streams until
// close. Reconnects trigger a space resync of that worker's tasks: the
// reliable link replays everything the outage queued, and the resync
// additionally forces a fresh full snapshot per task so the space heals
// even if the worker itself restarted mid-push (the version gate drops
// whatever arrives stale or twice).
func (rh *remoteHost) forward() {
	defer close(rh.doneC)
	for {
		select {
		case <-rh.stopC:
			return
		case e := <-rh.rs.Events():
			rh.record(e)
		case err := <-rh.rs.Failed():
			rh.fail(fmt.Errorf("core: agent failed: %w", err))
		case id := <-rh.rs.Reconnected():
			for _, task := range rh.tasksOf[id] {
				rh.sp.RequestResync(task)
			}
		}
	}
}

func (rh *remoteHost) record(e transport.NodeEvent) {
	rh.recorder.Record(trace.Kind(e.Kind), e.Task, e.Incarnation, e.Info)
}

func (rh *remoteHost) start(context.Context) { rh.rs.Start() }

// stop winds the workers down, aggregates their DONE stats (partial if
// a worker never answers within remoteDoneTimeout) and closes the
// session. Every event a worker sent precedes its DONE on the ordered
// link, so the events still queued are recorded before the forwarder
// stops.
func (rh *remoteHost) stop() transport.NodeDone {
	rh.rs.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), remoteDoneTimeout)
	defer cancel()
	stats, _ := rh.rs.WaitDone(ctx)
	rh.close()
	for {
		select {
		case e := <-rh.rs.Events():
			rh.record(e)
		default:
			return stats
		}
	}
}

// close stops the forwarder and unregisters the remote session.
func (rh *remoteHost) close() {
	rh.once.Do(func() {
		close(rh.stopC)
		<-rh.doneC
		rh.rs.Close()
	})
}
