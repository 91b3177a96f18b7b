package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
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
	"ginflow/internal/transport"
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

// TopicNamespace returns the session's broker topic prefix.
func (s *Session) TopicNamespace() string { return s.prefix }

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
	tctx, cancel := context.WithTimeoutCause(ctx, s.sub.Timeout, ErrStalled)
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
	rng := clus.Rand()
	chaos := s.mgr.chaos
	rc := s.mgr.cfg.Retry.WithDefaults()

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
		// agents' (rideOutFaults): slow calls succeed late, errors and
		// timeouts cost their modelled delay and retry under the bounded
		// backoff budget, and exhaustion fails the reduction with the
		// failure.ErrRetriesExhausted chain.
		dur := svc.InvocationDuration(rng)
		for attempt := 1; ; attempt++ {
			switch f := chaos.Draw(failure.BoundaryInvoke); f.Kind {
			case failure.FaultSlow:
				clock.Sleep(dur + f.Delay)
			case failure.FaultError, failure.FaultTimeout:
				cost := f.Delay
				if f.Kind == failure.FaultTimeout {
					cost = dur // the service ran to its deadline before the response was lost
				}
				clock.Sleep(cost)
				if attempt >= rc.MaxAttempts {
					return nil, fmt.Errorf("invoke %s: %d attempts: %w (%w)",
						name, attempt, failure.ErrRetriesExhausted, f.Err)
				}
				clock.Sleep(rc.Delay(attempt))
				continue
			default:
				clock.Sleep(dur)
			}
			break
		}
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
// session's topic namespace and runs the decentralised engine.
func (s *Session) runDistributed(ctx context.Context) (*Report, error) {
	def, services, cfg := s.def, s.services, s.mgr.cfg
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

	// The space consumes status updates; attach before any agent runs.
	// The space-client boundary is chaos-perturbed too: delivered status
	// batches may be deferred or double-folded before they reach the
	// multiset (drops are deferred, never lost — FlushDeferred below
	// drains the remainder so the run still converges).
	sp := s.space
	sp.SetClock(clock)
	sp.SetChaos(s.mgr.chaos)
	if err := sp.Attach(broker, spaceTopic); err != nil {
		return nil, err
	}
	// The resync channel: a delta push that fails to anchor makes the
	// space ask that agent for an immediate full snapshot instead of
	// staying stale until the agent's next natural full push.
	sp.SetResyncRequester(func(task string) {
		_ = broker.PublishAtoms(agent.Topic(topicPrefix, task), []hocl.Atom{hoclflow.ResyncMarker(task)})
	})
	spaceCtx, stopSpace := context.WithCancel(context.Background())
	defer stopSpace()
	spaceFailed := make(chan error, 1)
	// waitCtx wakes the virtual-mode completion wait on failure: a
	// single-token schedule cannot multi-select over channels, so every
	// failure sender buffers its error and cancels this context, and the
	// virtual waitErr path maps the wake back to the buffered cause.
	// (Real mode keeps the channel select; cancelling is harmless there.)
	waitCtx, failNow := context.WithCancel(ctx)
	defer failNow()
	// journalErr funnels write-through failures into the session's
	// failure channel: durability was asked for, so a failing journal
	// fails the session instead of silently degrading.
	journalErr := func(err error) {
		if err == nil {
			return
		}
		select {
		case spaceFailed <- fmt.Errorf("journal write-through: %w", err):
		default:
		}
		failNow()
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
		// Inbox write-through (log broker only): every direct-topic
		// publish is journaled as it lands in the broker log, so a
		// manager crash after resume can still replay pre-crash inbox
		// traffic into a fresh broker. Rotation rewrites the full history
		// from the live log into each new segment head.
		if rep, ok := broker.(mq.Replayable); ok && s.mgr.inboxJournals != nil {
			s.mgr.registerInboxJournal(s.id, func(msg mq.Message) {
				if !strings.HasPrefix(msg.Topic, topicPrefix) {
					return
				}
				journalErr(s.jw.AppendInbox(msg.Topic, msg.Atoms))
			})
			defer s.mgr.unregisterInboxJournal(s.id)
			s.jw.SetInboxSource(func() []journal.InboxRecord {
				var recs []journal.InboxRecord
				for _, topic := range broker.Topics(topicPrefix) {
					for _, m := range rep.Log(topic) {
						recs = append(recs, journal.InboxRecord{Topic: topic, Atoms: m.Atoms})
					}
				}
				return recs
			})
		}
	}
	clock.Go(func() {
		err := serveSpace()
		if err != nil && spaceCtx.Err() == nil {
			spaceFailed <- err
			failNow()
		}
	})

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

	nodeOf := map[string]*cluster.Node{}
	for _, p := range placements {
		nodeOf[p.Spec.Task.Name] = p.Node
	}

	injector := failure.New(s.sub.FailureP, s.sub.FailureT, clus.Rand())

	// Remote enactment: when the manager hosts a transport listener and
	// worker processes have joined, the agents run out-of-process — the
	// session fans its tasks out over the joined nodes and supervises
	// through the control protocol instead of in-process goroutines.
	// Recovered sessions stay in-process: their agents seed from
	// journaled solutions, which do not travel over an Assignment.
	var rh *remoteHost
	useRemote := s.mgr.server != nil && !s.recovered && s.mgr.server.NodeCount() > 0

	// Launch supervised agents. Every first incarnation subscribes
	// before any agent starts reducing: a fast entry task must not
	// publish results into the void (fatal on the volatile queue broker).
	sup := &supervisor{
		cluster: clus, broker: broker, services: services,
		injector: injector, placements: nodeOf,
		topicPrefix: topicPrefix, spaceTopic: spaceTopic,
		restartDelay: cfg.RestartDelay, maxRecoveries: cfg.MaxRecoveries,
		recorder: s.recorder, metrics: s.mgr.met.agents,
		chaos: s.mgr.chaos, retry: cfg.Retry,
	}
	var firstIncarnations []*agent.Agent
	if useRemote {
		// Remote READY is the same barrier: every worker reports READY
		// only after all its inbox subscriptions reached the broker.
		rh, err = s.launchRemote(ctx, sp, spaceTopic, topicPrefix, specs)
		if err != nil {
			return nil, err
		}
		defer rh.close()
	} else {
		firstIncarnations = make([]*agent.Agent, len(placements))
		for i, p := range placements {
			a := sup.newAgent(p, 0)
			if err := a.Subscribe(); err != nil {
				return nil, err
			}
			firstIncarnations[i] = a
		}
	}

	// Post-resume convergence: ask every recovered agent for a full
	// status push through the resync channel. Fresh incarnations push
	// full snapshots anyway, so this only forces the order — the space
	// re-hears every rebuilt task even if its seeded state is already
	// final.
	for name := range seeded {
		sp.RequestResync(name)
	}

	agentsCtx, stopAgents := context.WithCancel(ctx)
	defer stopAgents()
	execStart := clock.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, len(placements))
	var remoteFailed <-chan error
	if useRemote {
		rh.rs.Start()
		remoteFailed = rh.rs.Failed()
	} else {
		for i, p := range placements {
			wg.Add(1)
			p, first := p, firstIncarnations[i]
			clock.Go(func() {
				defer wg.Done()
				if err := sup.run(agentsCtx, p, first); err != nil && agentsCtx.Err() == nil {
					errCh <- err
					failNow()
				}
			})
		}
	}

	// Wait for the exit tasks to report completion in the space.
	waitErr := func() error {
		if clock.Virtual() {
			// Participant path: WaitCompleted parks on the space Cond;
			// failures wake it through waitCtx and are mapped back to
			// their buffered cause here.
			err := sp.WaitCompleted(waitCtx, def.Exits())
			if err == nil {
				return nil
			}
			select {
			case e := <-errCh:
				return fmt.Errorf("core: agent failed: %w", e)
			default:
			}
			select {
			case e := <-spaceFailed:
				return fmt.Errorf("core: space failed: %w", e)
			default:
			}
			if cause := classifyCause(context.Cause(ctx)); cause != nil {
				return cause
			}
			return err
		}
		done := make(chan error, 1)
		go func() { done <- sp.WaitCompleted(ctx, def.Exits()) }()
		select {
		case err := <-done:
			if err != nil {
				if cause := classifyCause(context.Cause(ctx)); cause != nil {
					return cause
				}
			}
			return err
		case err := <-errCh:
			return fmt.Errorf("core: agent failed: %w", err)
		case err := <-remoteFailed:
			return fmt.Errorf("core: agent failed: %w", err)
		case err := <-spaceFailed:
			return fmt.Errorf("core: space failed: %w", err)
		}
	}()
	execTime := clock.Now() - execStart
	stopAgents()
	// On a virtual clock the agent participants need the run token to
	// observe the cancellation and unwind; leave the schedule while they
	// do, then rejoin for the settle drain and report assembly.
	clock.Exit()
	wg.Wait()
	clock.Enter()
	var remoteStats transport.NodeDone
	if useRemote {
		remoteStats = rh.stop()
	}
	if waitErr == nil && !clock.Virtual() {
		awaitSpaceFold(sp, broker, spaceTopic)
	}

	// Chaos settle drain: delayed, duplicated and redelivered status
	// pushes may still be in flight when the exit tasks report complete;
	// let them fold into the space (the version gate drops the stale
	// ones) before the final state is read, so the fingerprint is
	// deterministic for a given seed.
	if waitErr == nil {
		if d := s.mgr.chaos.SettleSeconds(); d > 0 {
			clock.SleepCtx(ctx, d)
		}
	}
	// Space-boundary chaos defers dropped batches instead of losing
	// them; fold the remainder in before the final state is read.
	sp.FlushDeferred()

	if n := s.hub.droppedCount(); n > 0 {
		s.recorder.Record(trace.EventsDropped, "", 0,
			fmt.Sprintf("%d events lost to slow consumers", n))
	}

	rep := &Report{
		Workflow:   def.Name,
		Executor:   s.exec.Name(),
		Broker:     string(cfg.Broker),
		Tasks:      def.TaskCount(),
		Agents:     len(placements),
		Nodes:      len(clus.Nodes()),
		DeployTime: deployTime, ExecTime: execTime,
		TotalTime:  deployTime + execTime,
		Failures:   sup.failures(),
		Recoveries: sup.recoveries(),
		Messages:   broker.PublishedPrefix(s.prefix),
		Statuses:   map[string]hoclflow.Status{},
		Results:    map[string][]string{},

		DuplicatesSuppressed: sup.duplicates(),
		EventsDropped:        s.hub.droppedCount(),
	}
	if useRemote {
		// Out-of-process agents report their crash/respawn/dedup counts
		// in their DONE frames; the in-process supervisor saw nothing.
		rep.Failures = remoteStats.Failures
		rep.Recoveries = remoteStats.Recoveries
		rep.DuplicatesSuppressed = remoteStats.Duplicates
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
