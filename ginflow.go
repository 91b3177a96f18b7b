// Package ginflow is a decentralised, adaptive workflow execution
// manager: a Go reproduction of "GinFlow: A Decentralised Adaptive
// Workflow Execution Manager" (Rojas Balderrama, Simonin, Tedeschi,
// IEEE IPDPS 2016).
//
// A workflow is a DAG of tasks bound to services. GinFlow translates it
// into an HOCL (Higher-Order Chemical Language) program — a multiset of
// molecules rewritten by reaction rules — and executes it either on a
// single interpreter (centralized) or, its reason for existing, on a set
// of cooperating service agents, each holding a local copy of its task's
// sub-solution and reacting to molecules received from its peers over a
// message broker. Workflows can carry adaptation specifications:
// alternative sub-workflows wired in on-the-fly when a service fails,
// without stopping and restarting the execution (§III of the paper).
// Agents themselves are recoverable: with the log-backed broker, a
// crashed agent's replacement rebuilds its state by replaying its inbox
// (§IV-B).
//
// # Quick start
//
// The primary API is the long-lived Manager: build it once, then submit
// any number of concurrent workflow sessions against its shared
// platform. Each submission returns a Handle for waiting, live status,
// cancellation and event streaming:
//
//	mgr, err := ginflow.New(
//		ginflow.WithExecutor(ginflow.ExecutorSSH),
//		ginflow.WithBroker(ginflow.BrokerActiveMQ),
//	)
//	defer mgr.Close()
//
//	def := ginflow.Diamond(ginflow.DefaultDiamondSpec(3, 3, false))
//	services := ginflow.NewServiceRegistry()
//	services.RegisterNoop(1.0, "split", "work", "merge")
//
//	handle, err := mgr.Submit(context.Background(), def, services)
//	report, err := handle.Wait(context.Background())
//
// Concurrent sessions multiplex over one cluster and broker; each runs
// in its own topic namespace, so their molecules never mix. For the
// paper's one-shot shape, Run remains: it builds a throwaway manager,
// submits and waits.
//
// The package is a façade over the implementation packages under
// internal/; every type needed by a client is re-exported here.
package ginflow

import (
	"context"
	"io"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/core"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/montage"
	"ginflow/internal/mq"
	"ginflow/internal/obs"
	"ginflow/internal/templates"
	"ginflow/internal/trace"
	"ginflow/internal/transport"
	"ginflow/internal/workflow"
)

// Workflow modelling.
type (
	// Workflow is a DAG of tasks plus optional adaptations (§III-B/C).
	Workflow = workflow.Definition
	// Task is one node of the DAG.
	Task = workflow.Task
	// ReplacementTask is a node of an adaptation's alternative
	// sub-workflow.
	ReplacementTask = workflow.ReplacementTask
	// Adaptation declares that a faulty sub-workflow is replaced
	// on-the-fly by an alternative one.
	Adaptation = workflow.Adaptation
	// DiamondSpec parameterises the paper's diamond benchmark workload.
	DiamondSpec = workflow.DiamondSpec
)

// Execution.
type (
	// Config selects executor, broker, platform size and fault injection.
	Config = core.Config
	// Report summarises a run: times (model seconds), failures,
	// recoveries, adaptations, results.
	Report = core.Report
	// ClusterConfig sizes the simulated platform.
	ClusterConfig = cluster.Config
	// ServiceRegistry maps service names to implementations.
	ServiceRegistry = agent.Registry
	// Service is one invocable service: modelled duration + computation.
	Service = agent.Service
	// TaskStatus is the observable state of a task (idle, ready,
	// completed, failed).
	TaskStatus = hoclflow.Status
	// ExecutorKind selects an executor (§IV-C).
	ExecutorKind = executor.Kind
	// BrokerKind selects a messaging middleware (§IV-A).
	BrokerKind = mq.Kind
	// ChaosConfig parameterises the deterministic chaos harness: seeded
	// fault injection at the agent-crash, message, invocation,
	// deployment, journal, socket and space boundaries. One seed replays
	// one fault schedule exactly.
	ChaosConfig = failure.ChaosConfig
	// RetryConfig bounds the retry-with-backoff loops run under chaos.
	RetryConfig = failure.RetryConfig
	// MetricsRegistry is a zero-dependency metrics registry (counters,
	// gauges, histograms) with Prometheus text exposition; the engine's
	// instruments resolve on one (WithMetricsRegistry, or the shared
	// DefaultMetrics registry).
	MetricsRegistry = obs.Registry
)

// Executor kinds (§IV-C; EC2 is the cloud executor the paper sketches
// as an extension).
const (
	ExecutorSSH         = executor.KindSSH
	ExecutorMesos       = executor.KindMesos
	ExecutorEC2         = executor.KindEC2
	ExecutorCentralized = executor.KindCentralized
)

// Broker kinds (§IV-A).
const (
	BrokerActiveMQ = mq.KindQueue
	BrokerKafka    = mq.KindLog
)

// Task status values.
const (
	StatusIdle      = hoclflow.StatusIdle
	StatusReady     = hoclflow.StatusReady
	StatusCompleted = hoclflow.StatusCompleted
	StatusFailed    = hoclflow.StatusFailed
)

// Event streaming. Handle.Events delivers the enactment timeline live —
// task lifecycle, service invocations, result transfers, adaptation
// triggers, crashes and recoveries — replacing the collect-then-read
// Report.Events slice as the observation path for running workflows.
type (
	// Event is one enactment-timeline entry (model-time stamped).
	Event = trace.Event
	// EventKind classifies an event.
	EventKind = trace.Kind
	// SessionEvent is an enactment event stamped with the session that
	// emitted it — the element of the Manager-level merged bus
	// (Manager.Events).
	SessionEvent = core.SessionEvent
)

// Event kinds, in rough lifecycle order.
const (
	EventAgentStarted     = trace.AgentStarted
	EventServiceInvoked   = trace.ServiceInvoked
	EventServiceCompleted = trace.ServiceCompleted
	EventServiceErrored   = trace.ServiceErrored
	EventResultSent       = trace.ResultSent
	EventAdaptTriggered   = trace.AdaptTriggered
	EventAgentCrashed     = trace.AgentCrashed
	EventAgentRecovered   = trace.AgentRecovered
	EventTaskCompleted    = trace.TaskCompleted
	EventSessionRecovered = trace.SessionRecovered
	// EventServiceFaulted marks a transient injected invocation fault;
	// the agent retries with backoff.
	EventServiceFaulted = trace.ServiceFaulted
	// EventMessageDeduped marks a duplicated delivery suppressed by the
	// inbox sequence protocol.
	EventMessageDeduped = trace.MessageDeduped
	// EventAgentEscalated marks an agent abandoned after its retry
	// budget ran out; the session fails with the cause chain.
	EventAgentEscalated = trace.AgentEscalated
	// EventEventsDropped summarises events lost on the lossy live
	// stream, recorded once per session.
	EventEventsDropped = trace.EventsDropped
)

// Sentinel errors of the Manager API, matchable with errors.Is.
var (
	// ErrStalled reports a session that did not complete inside its
	// timeout: some exit task never reached StatusCompleted.
	ErrStalled = core.ErrStalled
	// ErrCancelled reports a session stopped by Handle.Cancel or by
	// cancellation of the submitting context.
	ErrCancelled = core.ErrCancelled
	// ErrUnknownService reports a submission referencing a service
	// missing from the registry; Submit fails fast, before deployment.
	ErrUnknownService = core.ErrUnknownService
	// ErrManagerClosed reports a submission to a closed Manager.
	ErrManagerClosed = core.ErrManagerClosed
	// ErrNoBroker reports a distributed per-session executor override on
	// a Manager built without a broker (a centralized Manager).
	ErrNoBroker = core.ErrNoBroker
	// ErrNoJournal reports a Recover call on a Manager built without
	// WithJournal.
	ErrNoJournal = core.ErrNoJournal
	// ErrRetriesExhausted reports a retry budget spent on injected
	// transient faults: a failed session's error chain matches it when
	// chaos escalation (rather than a stall) ended the run.
	ErrRetriesExhausted = failure.ErrRetriesExhausted
	// ErrVirtualListen reports WithListener combined with
	// WithVirtualTime: out-of-process workers live on wall-clock time
	// and cannot take part in the discrete-event schedule.
	ErrVirtualListen = core.ErrVirtualListen
)

// Option configures a Manager. Options cover the same ground as the
// Config struct consumed by Run; the Manager constructor takes options
// so configuration can grow without breaking callers.
type Option func(*Config)

// WithExecutor selects the executor (default ExecutorSSH).
func WithExecutor(k ExecutorKind) Option { return func(c *Config) { c.Executor = k } }

// WithBroker selects the messaging middleware (default BrokerActiveMQ).
func WithBroker(k BrokerKind) Option { return func(c *Config) { c.Broker = k } }

// WithBrokerShards partitions the shared broker into n independent
// shards. Each session's topic namespace pins to one shard, so
// concurrent sessions spread over the shard set instead of queueing
// behind one modelled middleware occupancy; a single session's timing is
// unchanged at any shard count. 0 (the default) takes the broker's
// default shard count; 1 reproduces an unsharded broker.
func WithBrokerShards(n int) Option { return func(c *Config) { c.BrokerShards = n } }

// WithCluster sizes the simulated platform.
func WithCluster(cc ClusterConfig) Option { return func(c *Config) { c.Cluster = cc } }

// WithVirtualTime runs the simulated platform on a discrete-event
// clock: modelled sleeps and delivery latencies cost no real time —
// whenever every goroutine of the schedule is blocked, the clock jumps
// straight to the earliest pending deadline. Runs are deterministic in
// their seed down to the reported model-time numbers (two same-seed
// runs report bit-identical timings), which makes 100x100-scale meshes
// and thousand-session fans cost only CPU and makes timing assertions
// exact. Virtual time is incompatible with WithListener: out-of-process
// workers live on wall-clock time, so New fails with ErrVirtualListen
// when both are set.
//
// Submit and Recover join the schedule for the length of the call, so
// their write-ahead retries under journal chaos back off in step with
// the running sessions. Call them from outside the run, never from a
// service implementation: a service already runs inside the schedule.
func WithVirtualTime() Option { return func(c *Config) { c.Cluster.Virtual = true } }

// WithFailureInjection sets the paper's §V-D fault: each service
// invocation crashes its agent with probability p, t model seconds into
// the service (if it is still running). It fills ChaosConfig's
// AgentCrashP and AgentCrashAfter, so a later WithChaos replaces it.
func WithFailureInjection(p, t float64) Option {
	return func(c *Config) { c.Chaos.AgentCrashP = p; c.Chaos.AgentCrashAfter = t }
}

// WithRestartDelay sets the modelled cost (model seconds) of respawning
// a crashed agent.
func WithRestartDelay(seconds float64) Option {
	return func(c *Config) { c.RestartDelay = seconds }
}

// WithMaxRecoveries bounds total agent respawns per session.
func WithMaxRecoveries(n int) Option { return func(c *Config) { c.MaxRecoveries = n } }

// WithTimeout sets the default per-session real-time timeout.
func WithTimeout(d time.Duration) Option { return func(c *Config) { c.Timeout = d } }

// WithTrace retains each session's full event timeline in Report.Events
// by default (live streaming via Handle.Events needs no option).
func WithTrace() Option { return func(c *Config) { c.CollectTrace = true } }

// WithChaos enables the deterministic chaos harness: every boundary the
// config selects — §V-D agent crashes, message delivery (drop,
// duplicate, delay, reorder), service invocation (transient error,
// timeout, slow-down), agent deployment and journal I/O (write error,
// torn write, slow fsync) — is perturbed by a seeded schedule. The same
// seed over the same workload replays the same faults, so a failing run
// is reproducible from its seed alone; a zero Seed takes the cluster
// seed. New rejects a config that fails ChaosConfig.Validate. Pair with
// WithRetry to tune how hard the engine fights back before escalating.
func WithChaos(cc ChaosConfig) Option { return func(c *Config) { c.Chaos = cc } }

// WithRetry bounds the retry-with-backoff loops run under WithChaos
// (invocation retries, deployment retries, journal write retries). The
// zero value takes the defaults (5 attempts, 0.5 model-second base,
// doubling).
func WithRetry(rc RetryConfig) Option { return func(c *Config) { c.Retry = rc } }

// WithListener starts a network transport listener on addr ("host:port";
// ":0" picks a free port, resolved by Manager.ListenerAddr). Worker
// processes — the ginflow-node binary, or any program calling
// JoinCluster — connect to it over TCP, and sessions submitted while
// workers are joined run their service agents out-of-process: the
// workers' agents publish and subscribe through the Manager's broker
// over the wire, so the engine's semantics (ordering barriers, inbox
// replay recovery, adaptation) are unchanged. Requires a distributed
// executor (ErrNoBroker otherwise).
func WithListener(addr string) Option { return func(c *Config) { c.Listen = addr } }

// WithMetrics serves the Manager's observability endpoints on addr
// ("host:port"; ":0" picks a free port, resolved by Manager.MetricsAddr):
// Prometheus text exposition at /metrics, a JSON snapshot at
// /metrics.json and the standard net/http/pprof profiles under
// /debug/pprof/. The endpoint covers every instrumented boundary —
// broker publishes and deliveries, journal appends and fsyncs,
// transport frames and reconnects, retry attempts, chaos fault draws
// and session lifecycle timings on both the wall clock and the model
// clock.
func WithMetrics(addr string) Option { return func(c *Config) { c.MetricsAddr = addr } }

// WithMetricsRegistry resolves the Manager's instruments on a private
// registry instead of the process-wide DefaultMetrics one. Two
// same-seed virtual-time runs over fresh private registries produce
// bit-identical model-time metric snapshots, so a run's metrics can be
// asserted on, diffed, or compared across refactorings.
func WithMetricsRegistry(reg *MetricsRegistry) Option {
	return func(c *Config) { c.Metrics = reg }
}

// WithTraceCap bounds each session's retained event timeline to the
// newest n events: the recorder becomes a ring buffer and the oldest
// events are dropped (and counted) once n is exceeded. The default (0)
// retains the full timeline, which for long chaos soaks grows without
// bound.
func WithTraceCap(n int) Option { return func(c *Config) { c.TraceCap = n } }

// WithJournal makes every distributed session durable: the submitted
// workflow, periodic space snapshots and the status-push stream are
// journaled under dir (one write-ahead segment log per session), and a
// Manager process crash no longer loses in-flight sessions — a fresh
// Manager over the same directory resumes them with Recover. Completed
// work is never re-executed on resume: tasks whose results were
// journaled restart as already-done.
func WithJournal(dir string) Option { return func(c *Config) { c.Journal.Dir = dir } }

// SubmitOption tunes one submission.
type SubmitOption = core.SubmitOption

// SubmitTimeout bounds one session in real time, overriding the
// manager's default.
func SubmitTimeout(d time.Duration) SubmitOption { return core.SubmitTimeout(d) }

// SubmitTrace retains this session's event timeline in Report.Events.
func SubmitTrace() SubmitOption { return core.SubmitTrace() }

// WithSessionExecutor overrides the Manager's executor for one session:
// a centralized single-interpreter debug run inside a distributed
// Manager, or a different distributed backend (e.g. one Mesos session
// on an SSH manager). A distributed kind requires the Manager to have a
// broker (ErrNoBroker otherwise).
func WithSessionExecutor(k ExecutorKind) SubmitOption { return core.SubmitExecutor(k) }

// Manager is the long-lived workflow engine: one shared simulated
// cluster, broker and executor serving any number of concurrent workflow
// sessions, each in its own topic namespace. Create with New, submit
// with Submit, shut down with Close.
type Manager struct {
	inner *core.Manager
}

// New builds a Manager; its cluster, broker and executor live until
// Close. Zero-option managers run SSH + ActiveMQ on the default
// 25-node platform.
func New(opts ...Option) (*Manager, error) {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	inner, err := core.NewManager(cfg)
	if err != nil {
		return nil, err
	}
	return &Manager{inner: inner}, nil
}

// Submit starts a workflow session and returns its handle immediately;
// deployment and enactment proceed in the background. The submitting
// context bounds the session: cancelling it cancels the run. Service
// bindings are validated up front (ErrUnknownService).
//
// Under WithVirtualTime, Submit takes the clock's run token for the
// call: its write-ahead record may back off on the virtual clock
// (WithJournal plus journal faults from WithChaos), and the token keeps
// that backoff in step with the sessions already running. A service
// implementation runs inside the schedule, holding the token, so it must
// not call Submit or Recover on a virtual-time Manager.
func (m *Manager) Submit(ctx context.Context, def *Workflow, services *ServiceRegistry, opts ...SubmitOption) (*Handle, error) {
	clock := m.inner.Cluster().Clock()
	clock.Enter()
	s, err := m.inner.Submit(ctx, def, services, opts...)
	clock.Exit()
	if err != nil {
		return nil, err
	}
	return &Handle{s: s}, nil
}

// Active returns the number of sessions currently running.
func (m *Manager) Active() int { return m.inner.Active() }

// Events returns a live merged stream of every session's enactment
// events, each stamped with its session ID — the observation point for
// dashboard-style consumers watching the whole Manager rather than one
// Handle. Recovery announces each resumed session here with an
// EventSessionRecovered. Delivery is lossy under backpressure and the
// channel closes when the Manager closes.
func (m *Manager) Events() <-chan SessionEvent { return m.inner.Events() }

// EventsDropped reports how many merged-bus events were lost to slow
// consumers of Manager.Events.
func (m *Manager) EventsDropped() int64 { return m.inner.EventsDropped() }

// ListenerAddr returns the bound address of the WithListener transport
// listener — the dial target for JoinCluster and ginflow-node, with a
// ":0" listen address resolved to the picked port. Empty without
// WithListener.
func (m *Manager) ListenerAddr() string { return m.inner.ListenerAddr() }

// Metrics returns the registry the Manager's instruments resolve on:
// the WithMetricsRegistry one, or the process-wide DefaultMetrics
// registry.
func (m *Manager) Metrics() *MetricsRegistry { return m.inner.Metrics() }

// MetricsAddr returns the bound address of the WithMetrics endpoint,
// with a ":0" address resolved to the picked port. Empty without
// WithMetrics.
func (m *Manager) MetricsAddr() string { return m.inner.MetricsAddr() }

// ConnectedNodes reports how many worker processes have joined the
// WithListener transport listener. Worker identities persist across
// connection drops, so a briefly-partitioned worker still counts.
func (m *Manager) ConnectedNodes() int { return m.inner.ConnectedNodes() }

// Recover scans the journal directory (WithJournal) for sessions a
// previous Manager process left unfinished — a crash, or a graceful
// Close mid-run — rebuilds each one from its snapshot + delta log and
// resumes it, returning the live handles. Tasks whose results were
// journaled are not re-executed. Service implementations cannot be
// persisted, so the registry is supplied again; opts apply on top of
// each session's journaled submission config. Sessions whose journal
// cannot be rebuilt are skipped and reported in the returned error
// alongside the successfully recovered handles. Under WithVirtualTime,
// Recover takes the clock's run token for the call, as Submit does.
func (m *Manager) Recover(ctx context.Context, services *ServiceRegistry, opts ...SubmitOption) ([]*Handle, error) {
	clock := m.inner.Cluster().Clock()
	clock.Enter()
	sessions, err := m.inner.Recover(ctx, services, opts...)
	clock.Exit()
	handles := make([]*Handle, len(sessions))
	for i, s := range sessions {
		handles[i] = &Handle{s: s}
	}
	return handles, err
}

// Close cancels every active session, waits for them to release their
// resources and shuts the shared broker down. With WithJournal, the
// journals of in-flight sessions are left on disk resumable — Close is
// the process stopping, not the workflows being cancelled; an explicit
// Handle.Cancel is terminal and reclaims the session's journal.
func (m *Manager) Close() error { return m.inner.Close() }

// Handle observes and controls one submitted workflow session.
type Handle struct {
	s *core.Session
}

// ID returns the session's manager-unique identifier.
func (h *Handle) ID() int64 { return h.s.ID() }

// Wait blocks until the session completes (or ctx ends) and returns the
// run report. A report is returned even when the run failed, so callers
// can inspect partial progress; the error matches ErrStalled /
// ErrCancelled via errors.Is where applicable.
func (h *Handle) Wait(ctx context.Context) (*Report, error) { return h.s.Wait(ctx) }

// Done returns a channel closed when the session has finished.
func (h *Handle) Done() <-chan struct{} { return h.s.Done() }

// Cancel stops the session; Wait returns an error matching ErrCancelled
// (wrapping cause when non-nil). Cancelling a finished session is a
// no-op.
func (h *Handle) Cancel(cause error) { h.s.Cancel(cause) }

// Status reports the live per-task statuses (StatusIdle for tasks that
// have not reported yet); after completion it reflects the final report.
func (h *Handle) Status() map[string]TaskStatus { return h.s.Status() }

// Events returns a live, typed stream of the session's enactment
// events. Delivery is non-blocking — a subscriber that stops draining
// loses events rather than stalling agents — and the channel closes when
// the session finishes.
func (h *Handle) Events() <-chan Event { return h.s.Events() }

// EventsDropped reports how many live events were lost because an
// Events subscriber stopped draining — the observable cost of the lossy
// delivery contract (also surfaced in Report.EventsDropped).
func (h *Handle) EventsDropped() int64 { return h.s.EventsDropped() }

// Worker is a joined worker process's handle: it hosts service agents
// for sessions the Manager assigns to it, out-of-process, until Close.
// The ginflow-node binary is a thin wrapper around JoinCluster; embed a
// Worker directly to ship custom service implementations with the
// process that registers them.
type Worker struct {
	n *transport.Node
}

// JoinCluster connects this process to a Manager's WithListener address
// as a worker node. The registry supplies the service implementations
// this worker can host — implementations cannot travel over the wire,
// so every worker registers what its assigned tasks will need (a task
// bound to a service missing here fails the session at assignment
// time). The worker then serves assignments until Close: agents are
// rebuilt locally from the workflow definition, supervised with crash
// restarts and inbox replay, and their traffic bridges to the Manager's
// broker over a reliable, reconnecting link.
func JoinCluster(addr string, services *ServiceRegistry) (*Worker, error) {
	n, err := transport.Join(addr, transport.NodeConfig{Services: services})
	if err != nil {
		return nil, err
	}
	return &Worker{n: n}, nil
}

// NodeID returns the worker's server-assigned identity (stable across
// reconnects).
func (w *Worker) NodeID() uint64 { return w.n.NodeID() }

// Close stops every session the worker hosts and disconnects it.
func (w *Worker) Close() error { return w.n.Close() }

// Run executes a workflow with the given services under the given
// configuration and returns the run report: the single-shot
// compatibility path, equivalent to New + Submit + Wait on a throwaway
// Manager.
func Run(ctx context.Context, def *Workflow, services *ServiceRegistry, cfg Config) (*Report, error) {
	return core.Run(ctx, def, services, cfg)
}

// NewServiceRegistry returns an empty service registry.
func NewServiceRegistry() *ServiceRegistry { return agent.NewRegistry() }

// DefaultMetrics returns the process-wide metrics registry, the one
// Managers built without WithMetricsRegistry resolve their instruments
// on. Package-level instrumentation (transport frames, HOCL reductions,
// trace-ring drops) always lands here.
func DefaultMetrics() *MetricsRegistry { return obs.Default() }

// NewMetricsRegistry returns an empty private metrics registry for
// WithMetricsRegistry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WriteChromeTrace renders an event timeline (Report.Events, collected
// with WithTrace or SubmitTrace) as Chrome trace_event JSON: load the
// file in chrome://tracing or https://ui.perfetto.dev to see each
// task's lifecycle as a labelled track, with service invocations as
// duration slices and the remaining events as instants. Timestamps are
// model seconds mapped to trace microseconds.
func WriteChromeTrace(w io.Writer, events []Event) error {
	return trace.WriteChromeTrace(w, events)
}

// FromJSON decodes and validates a workflow from its JSON form (§IV-D).
func FromJSON(data []byte) (*Workflow, error) { return workflow.FromJSON(data) }

// ParseClusterFile decodes a platform description — the machine list the
// SSH executor deploys onto (§IV-C).
func ParseClusterFile(data []byte) (ClusterConfig, error) {
	return cluster.ParseConfigFile(data)
}

// Diamond builds the paper's Fig. 11 benchmark workload: SPLIT -> h×v
// mesh -> MERGE, simple- or fully-connected.
func Diamond(spec DiamondSpec) *Workflow { return workflow.Diamond(spec) }

// DefaultDiamondSpec returns the benchmark diamond spec.
func DefaultDiamondSpec(h, v int, fully bool) DiamondSpec {
	return workflow.DefaultDiamondSpec(h, v, fully)
}

// WithBodyReplacement extends a diamond with the §V-B adaptation: the
// whole mesh body is replaced on failure by a fresh mesh.
func WithBodyReplacement(d *Workflow, spec DiamondSpec, replacementFully bool, replacementService string) *Workflow {
	return workflow.WithBodyReplacement(d, spec, replacementFully, replacementService)
}

// Sequence builds a linear workflow of n tasks.
func Sequence(n int, service, input string) *Workflow {
	return workflow.Sequence(n, service, input)
}

// Montage builds the 118-task Montage-like workflow of the paper's
// resilience evaluation (§V-D), and RegisterMontageServices registers
// its simulated kernels.
func Montage() *Workflow { return montage.Workflow() }

// RegisterMontageServices registers the Montage kernels on a registry.
func RegisterMontageServices(reg *ServiceRegistry) { montage.RegisterServices(reg) }

// Template building (Tigres-style combinators; the paper's §VII notes
// GinFlow's integration into the Tigres workflow environment).
type (
	// TemplateBuilder composes workflows from sequence / split /
	// parallel / merge templates.
	TemplateBuilder = templates.Builder
	// Stage is the set of open task IDs a template connects from.
	Stage = templates.Stage
)

// NewTemplate starts a template-based workflow builder.
func NewTemplate(name string) *TemplateBuilder { return templates.New(name) }

// JoinStages merges stages so the next template connects from all of
// them.
func JoinStages(stages ...Stage) Stage { return templates.Join(stages...) }

// EvalHOCL parses and reduces a standalone HOCL program, returning the
// final (inert) solution rendered in HOCL syntax. It gives CLI users and
// examples direct access to the chemical engine underneath GinFlow.
func EvalHOCL(src string) (string, error) {
	e := hocl.NewEngine()
	sol, err := e.Run(src)
	if err != nil {
		return "", err
	}
	return hocl.Pretty(sol), nil
}
