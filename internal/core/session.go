package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/journal"
	"ginflow/internal/mq"
	"ginflow/internal/space"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// Session is one workflow execution multiplexed onto a Manager's shared
// platform. It owns everything per-run: the agents, their supervisor, a
// private shared space, and a topic namespace ("wf<id>.") on the shared
// broker that keeps its molecules apart from every concurrent session's.
// A session is observed through Wait (the final report), Status (live
// per-task statuses from the session space) and Events (a live, typed,
// non-blocking event stream).
type Session struct {
	id       int64
	prefix   string // topic namespace, e.g. "wf3."
	def      *workflow.Definition
	services *agent.Registry
	mgr      *Manager
	sub      SubmitConfig
	// exec is the session's executor (possibly overridden per
	// submission); nil selects the centralized single-interpreter path.
	exec executor.Executor
	// jw write-through-journals the session's space stream (nil when the
	// manager has no journal or the session is centralized).
	jw *journal.SessionWriter
	// recovered marks a session rebuilt from its journal by Recover: its
	// space is pre-folded and agents seed from the recorded task states
	// instead of the pristine templates.
	recovered bool

	space    *space.Space
	recorder *trace.Recorder
	hub      *hub[trace.Event]
	cancel   context.CancelCauseFunc

	done chan struct{}

	mu     sync.Mutex
	report *Report
	err    error
}

func newSession(m *Manager, id int64, def *workflow.Definition, services *agent.Registry, sub SubmitConfig) *Session {
	s := &Session{
		id:       id,
		prefix:   fmt.Sprintf("wf%d.", id),
		def:      def,
		services: services,
		mgr:      m,
		sub:      sub,
		space:    space.New(),
		hub:      newHub[trace.Event](eventBuffer(def)),
		done:     make(chan struct{}),
	}
	if sub.CollectTrace {
		s.recorder = trace.NewRecorder(m.cluster.Clock())
		if m.cfg.TraceCap > 0 {
			s.recorder.SetCap(m.cfg.TraceCap)
		}
	} else {
		s.recorder = trace.NewForwarder(m.cluster.Clock())
	}
	s.recorder.AddSink(s.hub.publish)
	// Every session event also fans into the manager-level merged bus,
	// stamped with the session ID.
	s.recorder.AddSink(func(e trace.Event) {
		m.events.publish(SessionEvent{SessionID: id, Event: e})
	})
	// Per-kind event counters: kinds outside the prebuilt map resolve to
	// a nil counter, whose Inc is a no-op.
	s.recorder.AddSink(func(e trace.Event) {
		m.met.eventKinds[e.Kind].Inc()
	})
	return s
}

// journalBatch appends every payload of a space batch to the
// session journal — invoked by the space's serve loop before the batch
// folds in, so journal order equals fold order. It returns the first
// write error: journaling is an explicit durability contract, so a
// failing journal fails the session instead of silently degrading.
func (s *Session) journalBatch(batch []mq.Message) error {
	var firstErr error
	for i := range batch {
		if err := s.jw.AppendStatus(batch[i].Atoms); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// maybeCheckpoint cuts a journal checkpoint when enough status records
// accumulated — invoked by the serve loop right after a fold, so the
// snapshot is consistent with every record before it.
func (s *Session) maybeCheckpoint() error {
	if s.jw.ShouldCheckpoint() {
		return s.jw.Checkpoint(s.space.Snapshot().Atoms())
	}
	return nil
}

// eventBuffer sizes a session's per-subscriber event buffer: the stream
// is non-blocking (a full buffer drops), so it is sized to hold a whole
// healthy run (~5 events per task) with headroom for recoveries.
func eventBuffer(def *workflow.Definition) int {
	n := 8*len(def.AllTaskIDs()) + 64
	if n < 256 {
		n = 256
	}
	return n
}

// ID returns the session's manager-unique identifier.
func (s *Session) ID() int64 { return s.id }

// Cancel stops the session. Wait returns an error matching ErrCancelled
// (also wrapping cause, when non-nil). Cancelling a finished session is
// a no-op.
func (s *Session) Cancel(cause error) {
	switch {
	case cause == nil:
		s.cancel(ErrCancelled)
	case errors.Is(cause, ErrCancelled):
		s.cancel(cause)
	default:
		s.cancel(fmt.Errorf("%w: %w", ErrCancelled, cause))
	}
}

// Wait blocks until the session completes (or ctx ends) and returns the
// run report. Like the single-shot Run, a report is returned even when
// the run failed, so callers can inspect partial progress; the error
// matches ErrStalled / ErrCancelled via errors.Is where applicable.
func (s *Session) Wait(ctx context.Context) (*Report, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.report, s.err
	}
}

// Done returns a channel closed when the session has finished.
func (s *Session) Done() <-chan struct{} { return s.done }

// Status reports the live per-task statuses from the session's space
// (idle for tasks that have not reported yet). After completion it
// reflects the final report.
func (s *Session) Status() map[string]hoclflow.Status {
	s.mu.Lock()
	rep := s.report
	s.mu.Unlock()
	out := map[string]hoclflow.Status{}
	if rep != nil && rep.Statuses != nil {
		for id, st := range rep.Statuses {
			out[id] = st
		}
		return out
	}
	for _, id := range s.def.AllTaskIDs() {
		out[id] = s.space.Status(id)
	}
	return out
}

// Events returns a live stream of the session's enactment events (task
// lifecycle, service invocations, result transfers, adaptation triggers,
// crashes, recoveries). Delivery is non-blocking: a subscriber that
// stops draining loses events rather than stalling agents. The channel
// is closed when the session finishes; subscribing to a finished session
// yields an already-closed channel.
func (s *Session) Events() <-chan trace.Event {
	return s.hub.subscribe()
}

// EventsDropped reports how many live events were lost because an
// Events subscriber stopped draining (the lossy contract's observable
// cost; also surfaced in Report.EventsDropped).
func (s *Session) EventsDropped() int64 { return s.hub.droppedCount() }

// run drives the session to completion and publishes the outcome.
func (s *Session) run(ctx context.Context) {
	// ctx is the session's own (s.cancel ends it): end it once the run
	// is over, as any context's maker does.
	defer s.cancel(nil)
	tctx, cancel := s.mgr.cluster.Clock().WithTimeoutCause(ctx, s.sub.Timeout, ErrStalled)
	defer cancel()

	met := s.mgr.met
	met.sessionsStarted.Inc()
	startWall := time.Now()

	var rep *Report
	var err error
	if s.exec == nil {
		rep, err = s.runCentralized(tctx)
	} else {
		rep, err = s.runDistributed(tctx)
	}

	met.sessionWall.Observe(time.Since(startWall).Seconds())
	if rep != nil {
		met.deployModel.Observe(rep.DeployTime)
		met.execModel.Observe(rep.ExecTime)
	}
	if err == nil {
		met.sessionsCompleted.Inc()
	} else {
		met.sessionsFailed.Inc()
	}

	s.settleJournal(err)
	s.mu.Lock()
	s.report = rep
	s.err = err
	s.mu.Unlock()
	s.hub.close()
	s.mgr.finish(s)
	close(s.done)
}

// settleJournal closes out the session's journal according to how the
// session ended. A manager shutdown (ErrManagerClosed) leaves the
// session resumable on disk — the operator chose to stop the process,
// not the workflow; every other outcome (success, stall, explicit
// cancel, hard failure) is terminal: Wait observed a final report, so
// the journal is marked done and reclaimed.
func (s *Session) settleJournal(err error) {
	if s.jw == nil {
		return
	}
	// The crash test hook froze the on-disk state mid-run: leave it
	// exactly as a process kill would have, resumable.
	if errors.Is(err, ErrManagerClosed) || s.jw.Crashed() {
		s.jw.Close()
		return
	}
	s.jw.Finish()
	if s.mgr.journal != nil {
		s.mgr.journal.RemoveSession(s.id)
	}
}

// classifyCause maps a context cause onto the API's sentinel errors.
func classifyCause(cause error) error {
	switch {
	case cause == nil:
		return nil
	case errors.Is(cause, ErrStalled), errors.Is(cause, ErrCancelled):
		return cause
	case errors.Is(cause, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrStalled, cause)
	default:
		return fmt.Errorf("%w: %v", ErrCancelled, cause)
	}
}

// runCentralized executes the whole workflow on a single HOCL
// interpreter over the global multiset — the §III semantics, useful as a
// baseline and for debugging (the paper's "centralized executor").
func (s *Session) runCentralized(ctx context.Context) (*Report, error) {
	def, services := s.def, s.services
	prog, err := def.TranslateCentral()
	if err != nil {
		return nil, err
	}
	clus := s.mgr.cluster
	clock := clus.Clock()
	chaos := s.mgr.chaos
	rc := s.mgr.cfg.Retry
	sleep := func(d float64) error { clock.Sleep(d); return nil }

	eng := hocl.NewEngine()
	eng.Funcs.Register(hoclflow.FnInvoke, func(args []hocl.Atom) ([]hocl.Atom, error) {
		name, ok := args[0].(hocl.Str)
		if !ok {
			return nil, fmt.Errorf("invoke: bad service name %v", args[0])
		}
		svc, ok := services.Lookup(string(name))
		if !ok {
			return nil, fmt.Errorf("invoke: %w %q", ErrUnknownService, name)
		}
		var params []hocl.Atom
		if len(args) > 1 {
			if l, ok := args[1].(hocl.List); ok {
				params = l
			}
		}
		// The invocation boundary is chaos-perturbed exactly like the
		// agents' (failure.Schedule.RideOut), and exhaustion fails the
		// reduction with the failure.ErrRetriesExhausted chain.
		took, attempts, err := chaos.RideOut(svc.Duration, rc, sleep, nil)
		if err != nil {
			return nil, fmt.Errorf("invoke %s: %d attempts: %w (%w)",
				name, attempts, failure.ErrRetriesExhausted, err)
		}
		clock.Sleep(took)
		res, err := svc.Invoke(params)
		if err != nil {
			return []hocl.Atom{hoclflow.AtomERROR}, nil
		}
		return []hocl.Atom{res}, nil
	})
	for name, fn := range prog.Funcs {
		eng.Funcs.Register(name, fn)
	}

	start := clock.Now()
	if err := eng.Reduce(prog.Global); err != nil {
		return nil, err
	}
	execTime := clock.Now() - start

	rep := &Report{
		Workflow: def.Name,
		Executor: string(executor.KindCentralized),
		Broker:   "none",
		Tasks:    def.TaskCount(),
		Agents:   0,
		Nodes:    len(clus.Nodes()),
		ExecTime: execTime, TotalTime: execTime,
		Statuses: map[string]hoclflow.Status{},
		Results:  map[string][]string{},
	}
	for _, id := range def.AllTaskIDs() {
		if sub := hoclflow.FindTaskSub(prog.Global, id); sub != nil {
			rep.Statuses[id] = hoclflow.StatusOf(sub)
		}
	}
	for _, exit := range def.Exits() {
		sub := hoclflow.FindTaskSub(prog.Global, exit)
		if sub == nil {
			continue
		}
		for _, a := range hoclflow.Results(sub) {
			rep.Results[exit] = append(rep.Results[exit], a.String())
		}
		if rep.Statuses[exit] != hoclflow.StatusCompleted {
			return rep, fmt.Errorf("core: %w: exit task %s is %v", ErrStalled, exit, rep.Statuses[exit])
		}
	}
	for _, m := range prog.Global.Atoms() {
		if tp, ok := m.(hocl.Tuple); ok && len(tp) == 2 && tp[0].Equal(hoclflow.KeyTRIGGER) {
			if id, ok := tp[1].(hocl.Str); ok {
				rep.Adaptations = append(rep.Adaptations, string(id))
			}
		}
	}
	sort.Strings(rep.Adaptations)
	if cause := classifyCause(context.Cause(ctx)); cause != nil {
		// The single interpreter is not interruptible mid-reduction; a
		// cancellation or timeout that raced the reduction still surfaces.
		return rep, fmt.Errorf("core: workflow did not complete: %w", cause)
	}
	return rep, nil
}

// deployWithRetry wraps the executor's Deploy with the chaos schedule's
// deployment boundary: an injected fault costs one backoff and a retry,
// and a spent retry budget fails the session with the cause chain
// (failure.ErrRetriesExhausted) instead of deploying at all.
func (s *Session) deployWithRetry(ctx context.Context, specs []workflow.AgentSpec, clus *cluster.Cluster) ([]executor.Placement, float64, error) {
	ch := s.mgr.chaos
	rc := s.mgr.cfg.Retry.WithDefaults()
	for attempt := 1; ; attempt++ {
		if f := ch.Draw(failure.BoundaryDeploy); f.Kind == failure.FaultError {
			s.mgr.met.deployRetries.Inc()
			if attempt >= rc.MaxAttempts {
				return nil, 0, fmt.Errorf("core: deployment after %d attempts: %w (%w)",
					attempt, failure.ErrRetriesExhausted, f.Err)
			}
			if clus.Clock().SleepCtx(ctx, rc.Delay(attempt)) != nil {
				return nil, 0, context.Cause(ctx)
			}
			continue
		}
		return s.exec.Deploy(ctx, specs, clus)
	}
}

// runDistributed provisions agents through the executor under the
// session's topic namespace and runs the decentralised engine, in
// phases: attach the space, deploy, launch the agents (in process or on
// the joined workers), await the exit tasks, wind down, report.
//
// Every failure source ends the run through one funnel: fail records
// the first cause and cancels runCtx, the one context the await (and
// the remote READY barrier) watch on either clock.
func (s *Session) runDistributed(ctx context.Context) (*Report, error) {
	def, cfg := s.def, s.mgr.cfg
	specs, err := def.TranslateAgents()
	if err != nil {
		return nil, err
	}
	clus := s.mgr.cluster
	clock := clus.Clock()
	broker := s.mgr.broker
	spaceTopic := space.TopicFor(s.prefix)
	topicPrefix := s.prefix + agent.DefaultTopicPrefix

	// A recovered session does not start from the pristine templates:
	// each agent seeds from the journaled task state, and the DAG wiring
	// is reconciled so results whose delivery the crash swallowed are
	// re-sent (DESIGN.md "Durability & recovery").
	var seeded map[string]*hocl.Solution
	if s.recovered {
		seeded = s.space.TaskStates()
		if err := recoverSpecs(def, specs, seeded, s.space.Triggered()); err != nil {
			return nil, err
		}
	}

	// Whatever happens past this point, the session must not leave state
	// behind on the shared platform: its broker topics are purged once
	// the agents have stopped. (Node slots are released by their own
	// defer below.)
	defer broker.PurgeTopics(s.prefix)

	runCtx, fail := clock.WithCancelCause(ctx)
	defer fail(nil)

	// The space consumes status updates; attach before any agent runs.
	stopSpace, err := s.attachSpace(fail, spaceTopic)
	if err != nil {
		return nil, err
	}
	defer stopSpace()

	// Deployment (§IV-C): claim resources, place agents. Injected
	// deployment faults retry with backoff before giving up.
	placements, deployTime, err := s.deployWithRetry(ctx, specs, clus)
	if err != nil {
		if cause := classifyCause(context.Cause(ctx)); cause != nil {
			return nil, fmt.Errorf("core: deployment aborted: %w", cause)
		}
		return nil, err
	}
	defer func() {
		for _, p := range placements {
			p.Node.Release()
		}
	}()

	// Remote enactment: when the manager hosts a transport listener and
	// worker processes have joined, the agents run out-of-process — the
	// session fans its tasks out over the joined nodes and supervises
	// through the control protocol instead of in-process goroutines.
	// Recovered sessions stay in-process: their agents seed from
	// journaled solutions, which do not travel over an Assignment.
	// Either way every first incarnation subscribes before any agent
	// starts reducing: a fast entry task must not publish results into
	// the void (fatal on the volatile queue broker).
	var host agentHost
	if s.mgr.server != nil && !s.recovered && s.mgr.server.NodeCount() > 0 {
		host, err = s.launchRemote(runCtx, fail, spaceTopic, topicPrefix, specs)
	} else {
		host, err = s.launchLocal(fail, spaceTopic, topicPrefix, placements)
	}
	if err != nil {
		return nil, err
	}

	execStart := clock.Now()
	host.start(ctx)
	waitErr := s.space.WaitCompleted(runCtx, def.Exits())
	if waitErr != nil {
		waitErr = endCause(ctx, runCtx)
	}
	execTime := clock.Now() - execStart
	// Once the host has stopped, no agent records any more: the report's
	// crash, respawn and dedup counts are complete folds over the recorder.
	host.stop()
	s.settle(ctx, waitErr == nil, spaceTopic)

	sp := s.space
	rep := &Report{
		Workflow:   def.Name,
		Executor:   s.exec.Name(),
		Broker:     string(cfg.Broker),
		Tasks:      def.TaskCount(),
		Agents:     len(placements),
		Nodes:      len(clus.Nodes()),
		DeployTime: deployTime, ExecTime: execTime,
		TotalTime:  deployTime + execTime,
		Failures:   s.recorder.Count(trace.AgentCrashed),
		Recoveries: s.recorder.Count(trace.AgentRecovered),
		Messages:   broker.PublishedPrefix(s.prefix),
		Statuses:   map[string]hoclflow.Status{},
		Results:    map[string][]string{},

		DuplicatesSuppressed: int64(s.recorder.Count(trace.MessageDeduped)),
		EventsDropped:        s.hub.droppedCount(),
	}
	rep.Adaptations = sp.Triggered()
	rep.Events = s.recorder.Events()
	for _, id := range def.AllTaskIDs() {
		rep.Statuses[id] = sp.Status(id)
	}
	for _, exit := range def.Exits() {
		for _, a := range sp.Results(exit) {
			rep.Results[exit] = append(rep.Results[exit], a.String())
		}
	}
	if waitErr != nil {
		return rep, fmt.Errorf("core: workflow did not complete: %w", waitErr)
	}
	return rep, nil
}

// endCause says why runCtx ended. A failure recorded through the funnel
// is returned as is; an ended parent context (timeout, Cancel) maps onto
// the API's sentinels. classifyCause must not see a funnel failure: it
// would re-label it ErrCancelled.
func endCause(ctx, runCtx context.Context) error {
	cause := context.Cause(runCtx)
	if parent := context.Cause(ctx); parent != nil && errors.Is(cause, parent) {
		return classifyCause(parent)
	}
	return cause
}

// attachSpace subscribes the session's space to its status topic and
// starts the serve loop that folds it, journaling each batch first when
// the session is durable. The serve loop and the journal report their
// failures to fail; the returned stopSpace ends the serve loop.
func (s *Session) attachSpace(fail context.CancelCauseFunc, spaceTopic string) (stopSpace func(), err error) {
	sp, broker := s.space, s.mgr.broker
	// The space-client boundary is chaos-perturbed too: delivered status
	// batches may be deferred or double-folded before they reach the
	// multiset (drops are deferred, never lost — FlushDeferred in settle
	// drains the remainder so the run still converges).
	sp.SetChaos(s.mgr.chaos)
	if err := sp.Attach(broker, spaceTopic); err != nil {
		return nil, err
	}
	spaceCtx, stopSpace := s.mgr.cluster.Clock().WithCancel(context.Background())
	// Durability was asked for, so a failing journal fails the session
	// instead of silently degrading.
	journalErr := func(err error) {
		if err != nil {
			fail(fmt.Errorf("core: space failed: journal write-through: %w", err))
		}
	}
	serveSpace := func() error { return sp.Serve(spaceCtx, broker, spaceTopic) }
	if s.jw != nil {
		// Write-through journaling: every space-topic payload is appended
		// to the session journal before it is folded into the space (the
		// write-ahead contract), and checkpoints are cut on the same
		// goroutine so snapshots are consistent with the records before
		// them.
		serveSpace = func() error {
			return sp.ServeHooked(spaceCtx, broker, spaceTopic,
				func(batch []mq.Message) { journalErr(s.journalBatch(batch)) },
				func() { journalErr(s.maybeCheckpoint()) })
		}
	}
	s.mgr.cluster.Clock().Go(func() {
		if err := serveSpace(); err != nil && spaceCtx.Err() == nil {
			fail(fmt.Errorf("core: space failed: %w", err))
		}
	})
	return stopSpace, nil
}

// agentHost is where a session's agents run: in process under one
// supervisor (localHost), or on the joined worker nodes (remoteHost).
// Every agent is built and subscribed before start.
type agentHost interface {
	// start lets every agent run until ctx ends or stop.
	start(ctx context.Context)
	// stop winds the agents down; once it returns they record nothing
	// more.
	stop()
}

// localHost runs a session's agents as supervised in-process
// goroutines.
type localHost struct {
	sup    *agent.Supervisor
	firsts []*agent.Agent
	clock  *cluster.Clock
	fail   context.CancelCauseFunc

	cancel context.CancelFunc
	live   atomic.Int64 // agents whose supervisor has not returned
	exited cluster.Wake // signalled when the last supervisor returns
}

// launchLocal builds and subscribes the first incarnation of every
// placed agent.
func (s *Session) launchLocal(fail context.CancelCauseFunc, spaceTopic, topicPrefix string, placements []executor.Placement) (*localHost, error) {
	clus, cfg := s.mgr.cluster, s.mgr.cfg
	nodeOf := map[string]*cluster.Node{}
	for _, p := range placements {
		nodeOf[p.Spec.Task.Name] = p.Node
	}
	h := &localHost{clock: clus.Clock(), fail: fail, exited: cluster.NewWake(clus.Clock()), sup: &agent.Supervisor{
		Config: agent.Config{
			Broker:      s.mgr.broker,
			Cluster:     clus,
			Placements:  nodeOf,
			Services:    s.services,
			SpaceTopic:  spaceTopic,
			TopicPrefix: topicPrefix,
			Trace:       s.recorder,
			Chaos:       s.mgr.chaos,
			Retry:       cfg.Retry,
			Metrics:     s.mgr.met.agents,
		},
		RestartDelay:  cfg.RestartDelay,
		MaxRecoveries: cfg.MaxRecoveries,
	}}
	for _, p := range placements {
		a := h.sup.New(p.Spec)
		if err := a.Subscribe(); err != nil {
			return nil, err
		}
		h.firsts = append(h.firsts, a)
	}
	return h, nil
}

func (h *localHost) start(ctx context.Context) {
	ctx, h.cancel = h.clock.WithCancel(ctx)
	h.live.Store(int64(len(h.firsts)))
	for _, a := range h.firsts {
		h.clock.Go(func() {
			defer func() {
				if h.live.Add(-1) == 0 {
					h.exited.Signal()
				}
			}()
			if err := h.sup.Run(ctx, a); err != nil && ctx.Err() == nil {
				h.fail(fmt.Errorf("core: agent failed: %w", err))
			}
		})
	}
}

func (h *localHost) stop() {
	h.cancel()
	// Wait through the clock: on a virtual clock the agents need the run
	// token to observe the cancellation and unwind, and a wait inside the
	// schedule resumes the session at a deterministic point of it.
	for h.live.Load() > 0 {
		h.exited.Park(context.Background())
	}
}

// settle lets the space catch up once the agents have stopped, before
// the final state is read. After a completed run it waits for every
// status push still in flight and, under chaos, for delayed, duplicated
// and redelivered pushes to fold (the version gate drops the stale
// ones), so the fingerprint is deterministic for a given seed. Either
// way it folds the batches space-boundary chaos deferred.
func (s *Session) settle(ctx context.Context, completed bool, spaceTopic string) {
	clock := s.mgr.cluster.Clock()
	if completed {
		if !clock.Virtual() {
			awaitSpaceFold(s.space, s.mgr.broker, spaceTopic)
		}
		if d := s.mgr.chaos.SettleSeconds(); d > 0 {
			clock.SleepCtx(ctx, d)
		}
	}
	s.space.FlushDeferred()
	if n := s.hub.droppedCount(); n > 0 {
		s.recorder.Record(trace.EventsDropped, "", 0,
			fmt.Sprintf("%d events lost to slow consumers", n))
	}
}

// awaitSpaceFold waits, on the real clock, until the space has folded
// every message published on its topic. An agent sends the result that
// completes its successor before it pushes its own final status, so the
// session can end while that push is still in the broker or the space's
// queue; reading the state then reports the task as it was before. The
// agents have stopped when this runs (a remote worker reports DONE after
// its last push, on the same ordered link), so no push is still to come.
// The wait is bounded like a worker's DONE.
func awaitSpaceFold(sp *space.Space, broker mq.Broker, topic string) {
	deadline := time.Now().Add(remoteDoneTimeout)
	for sp.Consumed() < broker.PublishedPrefix(topic) && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}

// hub fans values out to subscribers. It is deliberately lossy under
// backpressure: publish never blocks, so a slow observer cannot stall a
// reducing agent. It backs both the per-session event stream
// (hub[trace.Event]) and the manager-level merged bus
// (hub[SessionEvent]).
type hub[T any] struct {
	buf int

	// dropped counts deliveries lost to full subscriber buffers — the
	// observable cost of the lossy contract (surfaced in Report and on
	// the EventsDropped accessors).
	dropped atomic.Int64

	mu     sync.Mutex
	closed bool
	subs   []chan T
}

func newHub[T any](buf int) *hub[T] { return &hub[T]{buf: buf} }

func (h *hub[T]) publish(e T) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	for _, ch := range h.subs {
		select {
		case ch <- e:
		default: // lossy: never block the recording agent
			h.dropped.Add(1)
		}
	}
}

// droppedCount returns how many deliveries were lost to slow consumers.
func (h *hub[T]) droppedCount() int64 { return h.dropped.Load() }

func (h *hub[T]) subscribe() <-chan T {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch := make(chan T, h.buf)
	if h.closed {
		close(ch)
		return ch
	}
	h.subs = append(h.subs, ch)
	return ch
}

func (h *hub[T]) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, ch := range h.subs {
		close(ch)
	}
}
