package agent

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
	"ginflow/internal/space"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// DefaultTopicPrefix prefixes each agent's inbox topic: the inbox of task
// T1 is "sa.T1".
const DefaultTopicPrefix = "sa."

// Topic returns the inbox topic of a task's agent.
func Topic(prefix, task string) string {
	if prefix == "" {
		prefix = DefaultTopicPrefix
	}
	return prefix + task
}

// CrashError reports a fault-injected agent crash (§V-D). The supervisor
// reacts by starting a replacement incarnation.
type CrashError struct {
	Task        string
	Incarnation int
	At          float64 // model time of the crash
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("agent %s (incarnation %d) crashed at t=%.2f", e.Task, e.Incarnation, e.At)
}

// IsCrash reports whether err is (or wraps) an injected crash.
func IsCrash(err error) bool {
	var ce *CrashError
	return errors.As(err, &ce)
}

// EscalationError reports a service invocation abandoned after its
// bounded retry budget: every attempt hit a transient fault. The
// supervisor escalates it — the session fails with the structured cause
// chain instead of stalling. errors.Is matches both
// failure.ErrRetriesExhausted and the underlying cause chain.
type EscalationError struct {
	// Task and Incarnation identify the failing agent.
	Task        string
	Incarnation int
	// Service is the invoked service name.
	Service string
	// Attempts is how many invocation attempts were made.
	Attempts int
	// Cause is the last attempt's fault.
	Cause error
}

func (e *EscalationError) Error() string {
	return fmt.Sprintf("agent %s (incarnation %d): service %q: %v after %d attempts: %v",
		e.Task, e.Incarnation, e.Service, failure.ErrRetriesExhausted, e.Attempts, e.Cause)
}

// Unwrap exposes the last fault for errors.Is/As chains.
func (e *EscalationError) Unwrap() error { return e.Cause }

// Is matches failure.ErrRetriesExhausted, which the message embeds.
func (e *EscalationError) Is(target error) bool {
	return target == failure.ErrRetriesExhausted
}

// Config wires one agent incarnation.
type Config struct {
	Spec workflow.AgentSpec
	// Broker carries inter-agent messages and space updates. A respawned
	// incarnation replays its inbox when the broker is mq.Replayable.
	Broker mq.PubSub
	// Cluster provides the clock and the link-latency model; Node is the
	// machine hosting this agent.
	Cluster *cluster.Cluster
	Node    *cluster.Node
	// Placements locates peer agents' nodes for link-latency modelling
	// (nil disables link latency).
	Placements map[string]*cluster.Node
	// Services resolves SRV names.
	Services *Registry
	// Chaos, when set, crashes the agent mid-service (§V-D agent
	// crashes) and perturbs service invocations with transient faults
	// (errors, timeouts, slow-downs) that the agent retries under Retry
	// before escalating.
	Chaos *failure.Schedule
	// Retry bounds the retry-with-backoff for transient invocation
	// faults (zero value: failure.RetryConfig defaults).
	Retry failure.RetryConfig
	// SpaceTopic receives status pushes (default space.DefaultTopic).
	SpaceTopic string
	// TopicPrefix prefixes inbox topics (default DefaultTopicPrefix).
	TopicPrefix string
	// Incarnation is 0 for the first launch and increments per recovery.
	Incarnation int
	// Trace, when non-nil, records the agent's lifecycle events.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives the agent's observability updates
	// (invocation timings, retries, dedup suppressions). nil disables
	// instrumentation at zero cost.
	Metrics *Metrics
}

// Agent is one service agent incarnation. Create with New, Subscribe
// before any peer may address it (the engine subscribes every agent
// before starting any of them, so no message is published into the
// void), then drive with Run; a crashed agent is dead — recovery creates
// a new incarnation.
type Agent struct {
	cfg    Config
	name   string
	local  *hocl.Solution
	engine *hocl.Engine
	sub    *mq.Subscription
	// runCtx is the context of the active Run, consulted by invoke so a
	// cancelled agent abandons its in-flight modelled invocation instead
	// of sleeping it out.
	runCtx context.Context

	// statusEnc versions status pushes: each is the task's full record,
	// and unchanged states are deduplicated by fingerprint without
	// rendering or snapshotting anything.
	statusEnc     hoclflow.StatusEncoder
	statusScratch []hocl.Atom
	completedSeen bool

	// sendSeq numbers this incarnation's outgoing messages per topic;
	// each direct message is prefixed with a SEQ header so the receiver
	// can suppress duplicated deliveries. Touched only by the reduction
	// goroutine.
	sendSeq map[string]int64
	// seen records ingested (origin, seq) pairs with the payload
	// fingerprint that carried them: a repeat with the same fingerprint
	// is a duplicate delivery and is suppressed; a repeat with a
	// different fingerprint is a respawned sender reusing its counter
	// and is accepted. Touched only by the ingest goroutine.
	seen map[string]map[int64]uint64

	// met is the resolved instrument set (zero value: all no-ops).
	met Metrics
}

// New builds an agent incarnation from its spec. The spec's template
// solution is snapshotted (copy-on-write at the solution boundary):
// every incarnation starts from the pristine task state and rebuilds
// through replay, per §IV-B's soft-state design, while immutable atoms
// and rules stay shared with the template.
func New(cfg Config) *Agent {
	a := &Agent{
		cfg:  cfg,
		name: cfg.Spec.Task.Name,
	}
	a.local = cfg.Spec.Local.SnapshotSolution()
	a.statusEnc.Task = a.name
	a.statusEnc.Incarnation = cfg.Incarnation
	a.engine = hocl.NewEngine()
	if cfg.Metrics != nil {
		a.met = *cfg.Metrics
	}
	a.bindFunctions()
	return a
}

// Name returns the task this agent executes.
func (a *Agent) Name() string { return a.name }

func (a *Agent) clock() *cluster.Clock { return a.cfg.Cluster.Clock() }

// sleep charges a modelled duration, interruptible by the active Run's
// context: a cancelled agent abandons the invocation mid-sleep, so
// session teardown never waits out long in-flight services.
func (a *Agent) sleep(modelSeconds float64) error {
	ctx := a.runCtx
	if ctx == nil {
		ctx = context.Background()
	}
	return a.clock().SleepCtx(ctx, modelSeconds)
}

func (a *Agent) inboxTopic() string { return Topic(a.cfg.TopicPrefix, a.name) }

func (a *Agent) spaceTopic() string {
	if a.cfg.SpaceTopic != "" {
		return a.cfg.SpaceTopic
	}
	return space.DefaultTopic
}

// bindFunctions registers the agent-bound external functions on the
// embedded interpreter: invoke, send, the adaptation triggers this task
// owns and the generated mv_src rewrites.
func (a *Agent) bindFunctions() {
	a.engine.Funcs.Register(hoclflow.FnInvoke, a.invoke)
	a.engine.Funcs.Register(hoclflow.FnSend, a.send)
	for name, fn := range a.cfg.Spec.Funcs {
		a.engine.Funcs.Register(name, fn)
	}
	for _, trig := range a.cfg.Spec.Triggers {
		trig := trig
		a.engine.Funcs.Register(trig.FuncName, func([]hocl.Atom) ([]hocl.Atom, error) {
			return nil, a.fireTrigger(trig)
		})
	}
}

// invoke implements the gw_call external function: resolve the service,
// charge its modelled duration on the clock and return the result (or
// ERROR on service-level failure). An agent-crash fault interrupts the
// invocation with a CrashError after its delay, aborting the reduction
// — the supervisor takes over from there.
func (a *Agent) invoke(args []hocl.Atom) ([]hocl.Atom, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("invoke: missing service name")
	}
	svcName, ok := args[0].(hocl.Str)
	if !ok {
		return nil, fmt.Errorf("invoke: service name is %s, want string", args[0].Kind())
	}
	svc, ok := a.cfg.Services.Lookup(string(svcName))
	if !ok {
		return nil, fmt.Errorf("invoke: unknown service %q", svcName)
	}
	var params []hocl.Atom
	if len(args) > 1 {
		if l, ok := args[1].(hocl.List); ok {
			params = l
		}
	}

	dur := svc.Duration
	startModel, startWall := a.clock().Now(), time.Now()
	a.cfg.Trace.Record(trace.ServiceInvoked, a.name, a.cfg.Incarnation, string(svcName))
	if f := a.cfg.Chaos.Draw(failure.BoundaryAgentCrash); f.Kind == failure.FaultCrash && f.Delay <= dur {
		// The failure hits while the service is still running (§V-D:
		// only services whose duration exceeds T are at risk).
		if err := a.sleep(f.Delay); err != nil {
			return nil, err
		}
		a.cfg.Trace.Record(trace.AgentCrashed, a.name, a.cfg.Incarnation, string(svcName))
		return nil, &CrashError{Task: a.name, Incarnation: a.cfg.Incarnation, At: a.clock().Now()}
	}
	if a.cfg.Chaos.Active(failure.BoundaryInvoke) {
		var err error
		if dur, err = a.rideOutFaults(string(svcName), dur); err != nil {
			return nil, err
		}
	}
	if err := a.sleep(dur); err != nil {
		return nil, err
	}

	result, err := svc.Invoke(params)
	a.met.InvokeModel.Observe(a.clock().Now() - startModel)
	a.met.InvokeWall.Observe(time.Since(startWall).Seconds())
	if err != nil {
		a.cfg.Trace.Record(trace.ServiceErrored, a.name, a.cfg.Incarnation, string(svcName))
		return []hocl.Atom{hoclflow.AtomERROR}, nil
	}
	a.cfg.Trace.Record(trace.ServiceCompleted, a.name, a.cfg.Incarnation, string(svcName))
	return []hocl.Atom{result}, nil
}

// rideOutFaults retries the chaos schedule's transient invocation
// faults under the agent's backoff budget (failure.Schedule.RideOut),
// tracing and counting each one. Exhaustion returns an EscalationError
// whose chain matches failure.ErrRetriesExhausted; the supervisor
// escalates it into a session failure.
func (a *Agent) rideOutFaults(svcName string, dur float64) (float64, error) {
	took, attempts, err := a.cfg.Chaos.RideOut(dur, a.cfg.Retry, a.sleep, func(attempt int, f failure.Fault) {
		a.cfg.Trace.Record(trace.ServiceFaulted, a.name, a.cfg.Incarnation,
			fmt.Sprintf("%s attempt %d: %v", svcName, attempt, f.Err))
		a.met.Retries.Inc()
	})
	if err != nil && attempts > 0 {
		return 0, &EscalationError{
			Task: a.name, Incarnation: a.cfg.Incarnation,
			Service: svcName, Attempts: attempts, Cause: err,
		}
	}
	return took, err
}

// send implements the decentralised gw_pass product (§IV-A): ship the
// result molecules directly to the destination agent's inbox. The
// result atoms are snapshotted (solutions get independent shells,
// immutable atoms travel by reference) and handed to the broker
// pre-built, never rendered to text. Link latency to the destination's
// node is charged asynchronously — the message is on the wire, the
// sender moves on.
func (a *Agent) send(args []hocl.Atom) ([]hocl.Atom, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("send: missing destination")
	}
	dst, ok := args[0].(hocl.Ident)
	if !ok {
		return nil, fmt.Errorf("send: destination is %s, want task name", args[0].Kind())
	}
	// gw_send fires only on a non-ERROR result, so the task has
	// completed; say so before the result can reach a successor, or the
	// trace could show the successor completing first.
	a.markCompleted()
	topic := Topic(a.cfg.TopicPrefix, string(dst))
	payload := a.stampSeq(topic, hoclflow.PassMessage(a.name, hocl.SnapshotAtoms(args[1:])))
	a.publishWithLatency(topic, payload, a.linkLatencyTo(string(dst)))
	a.cfg.Trace.Record(trace.ResultSent, a.name, a.cfg.Incarnation, string(dst))
	return nil, nil
}

// fireTrigger implements the decentralised trigger_adapt (§IV-A): the
// interpreter that detected the failure messages ADAPT to the agents
// hosting add_dst/mv_src rules and records TRIGGER in the shared space.
func (a *Agent) fireTrigger(trig workflow.TriggerSpec) error {
	a.met.Adaptations.Inc()
	a.cfg.Trace.Record(trace.AdaptTriggered, a.name, a.cfg.Incarnation, trig.AdaptationID)
	marker := hoclflow.AdaptMarker(trig.AdaptationID)
	for _, peer := range trig.Notify {
		t := Topic(a.cfg.TopicPrefix, peer)
		a.publishWithLatency(t, a.stampSeq(t, marker), a.linkLatencyTo(peer))
	}
	a.publishWithLatency(a.spaceTopic(), []hocl.Atom{hoclflow.TriggerMarker(trig.AdaptationID)}, 0)
	return nil
}

// stampSeq wraps a direct message's body with this incarnation's next
// per-destination SEQ header, the receiver's handle for suppressing
// duplicated deliveries (exactly-once ingestion).
func (a *Agent) stampSeq(topic string, body hocl.Atom) []hocl.Atom {
	if a.sendSeq == nil {
		a.sendSeq = map[string]int64{}
	}
	a.sendSeq[topic]++
	return []hocl.Atom{hoclflow.SeqMarker(a.name, a.sendSeq[topic]), body}
}

// dupSeq records a message's (origin, seq, payload fingerprint)
// identity and reports whether that exact message was ingested before.
// The fingerprint guards the one legitimate reuse of a sequence number:
// a respawned sender restarts its counter, and its re-send may carry
// different content that must not be suppressed.
func (a *Agent) dupSeq(origin string, n int64, payload []hocl.Atom) bool {
	fp := hocl.Fingerprint(payload...)
	if a.seen == nil {
		a.seen = map[string]map[int64]uint64{}
	}
	m := a.seen[origin]
	if m == nil {
		m = map[int64]uint64{}
		a.seen[origin] = m
	}
	if prev, ok := m[n]; ok && prev == fp {
		return true
	}
	m[n] = fp
	return false
}

func (a *Agent) linkLatencyTo(peer string) float64 {
	if a.cfg.Placements == nil || a.cfg.Node == nil {
		return 0
	}
	return a.cfg.Cluster.Latency(a.cfg.Node, a.cfg.Placements[peer])
}

// publishWithLatency ships atoms after the given link latency without
// blocking the reduction.
func (a *Agent) publishWithLatency(topic string, atoms []hocl.Atom, latency float64) {
	if latency <= 0 {
		_ = a.cfg.Broker.PublishAtoms(topic, atoms)
		return
	}
	a.clock().Go(func() {
		a.clock().Sleep(latency)
		_ = a.cfg.Broker.PublishAtoms(topic, atoms)
	})
}

// pushStatus publishes the task's current sub-solution to the shared
// space ("often pushed back (written) to the multiset", §IV-A). Rules
// and the NAME atom are stripped: the space tracks data state, and rules
// do not round-trip cheaply.
//
// The stripped state goes through the incarnation's StatusEncoder: every
// push is the task's full record behind a VER header, and an unchanged
// state costs one fingerprint and no publish.
func (a *Agent) pushStatus() {
	atoms := a.statusScratch[:0]
	for _, atom := range a.local.Atoms() {
		if _, isRule := atom.(*hocl.Rule); isRule {
			continue
		}
		if tp, ok := atom.(hocl.Tuple); ok && len(tp) == 2 && tp[0].Equal(hoclflow.KeyNAME) {
			continue
		}
		atoms = append(atoms, atom)
	}
	a.statusScratch = atoms
	payload := a.statusEnc.Encode(atoms, a.local.Inert())
	if payload == nil {
		return
	}
	_ = a.cfg.Broker.PublishAtoms(a.spaceTopic(), payload)
}

// reduce runs the interpreter over the local solution and pushes status.
func (a *Agent) reduce() error {
	if err := a.engine.Reduce(a.local); err != nil {
		return err
	}
	if hoclflow.StatusOf(a.local) == hoclflow.StatusCompleted {
		a.markCompleted()
	}
	a.pushStatus()
	return nil
}

// markCompleted traces the task's completion, once per incarnation.
func (a *Agent) markCompleted() {
	if !a.completedSeen {
		a.completedSeen = true
		a.cfg.Trace.Record(trace.TaskCompleted, a.name, a.cfg.Incarnation, "")
	}
}

// ingest folds a message into the local solution. Atoms are ingested by
// reference — no parsing, no cloning — except for atoms containing a
// non-inert solution, which the engine could mutate while other owners
// (peers, the replay log) still share them; those are cloned.
//
// SEQ headers are checked first: a message whose (origin, seq, payload
// fingerprint) was already ingested is a duplicated delivery and is
// dropped whole (exactly-once ingestion over at-least-once transport).
func (a *Agent) ingest(msg mq.Message) {
	atoms := msg.Atoms
	if len(atoms) > 0 {
		if origin, n, ok := hoclflow.DecodeSeq(atoms[0]); ok {
			atoms = atoms[1:]
			if a.dupSeq(origin, n, atoms) {
				a.met.Dedup.Inc()
				a.cfg.Trace.Record(trace.MessageDeduped, a.name, a.cfg.Incarnation,
					fmt.Sprintf("%s#%d", origin, n))
				return
			}
		}
	}
	for _, atom := range atoms {
		if hocl.Shareable(atom) {
			a.local.Add(atom)
		} else {
			a.local.Add(atom.Clone())
		}
	}
}

// Subscribe attaches the agent to its inbox topic. The engine subscribes
// every agent before starting any of them: a peer that finishes fast
// cannot publish a result into the void (on the volatile queue broker
// that message would be lost forever). Subscribe is idempotent.
func (a *Agent) Subscribe() error {
	if a.sub != nil {
		return nil
	}
	sub, err := a.cfg.Broker.Subscribe(a.inboxTopic())
	if err != nil {
		return fmt.Errorf("agent %s: %w", a.name, err)
	}
	a.sub = sub
	return nil
}

// Run executes the agent until the context ends or a crash is injected.
// The sequence implements §IV-A/§IV-B:
//
//  1. subscribe to the inbox topic if Subscribe has not been called yet
//     (before replay, so no message can fall between the log snapshot
//     and the live feed);
//  2. on recovery, replay the persisted inbox log in order, rebuilding
//     the local state — the agent "lifecycle is a sequence of receptions
//     and reductions", so replaying receptions reproduces the state;
//  3. reduce (entry tasks invoke their service right away);
//  4. loop: receive molecules, reduce, push status.
func (a *Agent) Run(ctx context.Context) error {
	if err := a.Subscribe(); err != nil {
		return err
	}
	a.runCtx = ctx
	sub := a.sub
	defer sub.Cancel()

	a.met.Deployed.Inc()
	a.cfg.Trace.Record(trace.AgentStarted, a.name, a.cfg.Incarnation, "")
	if a.cfg.Incarnation > 0 {
		if replayable, ok := a.cfg.Broker.(mq.Replayable); ok {
			log, err := replayable.Log(a.inboxTopic())
			if err != nil {
				return fmt.Errorf("agent %s: inbox replay: %w", a.name, err)
			}
			for _, msg := range log {
				a.ingest(msg)
			}
		}
	}
	if err := a.reduce(); err != nil {
		return err
	}

	for {
		batch, err := sub.Next(ctx)
		if err != nil {
			return nil // context ended or subscription cancelled
		}
		for i := range batch {
			a.ingest(batch[i])
		}
		// Absorb whatever else is already due before reducing: one
		// reduction can absorb a burst of arrivals.
		for more := sub.TryNext(); more != nil; more = sub.TryNext() {
			for i := range more {
				a.ingest(more[i])
			}
		}
		if err := a.reduce(); err != nil {
			return err
		}
	}
}
