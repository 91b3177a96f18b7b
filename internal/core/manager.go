package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/journal"
	"ginflow/internal/mq"
	"ginflow/internal/obs"
	"ginflow/internal/trace"
	"ginflow/internal/transport"
	"ginflow/internal/workflow"
)

// Sentinel errors of the Manager API, matchable with errors.Is.
var (
	// ErrStalled reports a session that did not complete inside its
	// timeout: some exit task never reached the completed status.
	ErrStalled = errors.New("workflow stalled")
	// ErrCancelled reports a session stopped by Session.Cancel (or by
	// cancellation of the submitting context).
	ErrCancelled = errors.New("workflow cancelled")
	// ErrUnknownService reports a submission referencing a service the
	// registry cannot resolve; Submit fails fast instead of deploying
	// agents doomed to die mid-run.
	ErrUnknownService = errors.New("unknown service")
	// ErrManagerClosed reports a submission to a closed manager.
	ErrManagerClosed = errors.New("manager closed")
	// ErrNoBroker reports a distributed session submitted to a manager
	// built without a broker (a centralized-executor manager): the
	// per-session executor override can only narrow to centralized, not
	// widen to distributed.
	ErrNoBroker = errors.New("manager has no broker")
	// ErrNoJournal reports a Recover call on a manager built without a
	// journal directory.
	ErrNoJournal = errors.New("manager has no journal")
	// ErrVirtualListen reports a Listen address configured together with
	// the virtual clock: out-of-process workers live on wall-clock time
	// and cannot take part in a discrete-event schedule, so TCP mode
	// requires the real clock.
	ErrVirtualListen = errors.New("transport listener requires the real clock")
)

// Manager is the long-lived engine: it owns one simulated platform, one
// message broker and one executor for its whole lifetime and multiplexes
// concurrent workflow sessions over them — the deploy-once/execute-many
// shape of decentralised orchestration services, where the paper's
// engine enacts one workflow per invocation. Each session gets a
// distinct topic namespace on the shared broker ("wf<id>."), so the
// molecules of concurrent runs never cross.
type Manager struct {
	cfg     Config
	cluster *cluster.Cluster
	broker  mq.Broker
	exec    executor.Executor // nil for the centralized executor
	journal *journal.Journal  // nil without Config.Journal.Dir
	// server is the network transport listener fronting the shared
	// broker (nil without Config.Listen): worker processes join it and
	// host sessions' agents out-of-process.
	server *transport.Server
	events *hub[SessionEvent]
	// chaos is the manager-wide deterministic fault schedule (nil when
	// Config.Chaos is disabled); it is shared by the broker, the journal
	// writers and every session's agents so one seed replays one run.
	chaos *failure.Schedule
	// reg is the manager's metrics registry; met its resolved
	// instruments; metricsSrv the HTTP endpoint (nil without
	// Config.MetricsAddr).
	reg        *obs.Registry
	met        *coreMetrics
	metricsSrv *obs.Server

	mu     sync.Mutex
	closed bool
	nextID int64
	active map[int64]*Session
	wg     sync.WaitGroup
}

// NewManager builds a manager from the config (zero values take
// defaults). The cluster, broker and executor live until Close. With
// Config.Journal.Dir set the journal directory is opened (created if
// absent) and new session IDs are allocated past any journaled ones, so
// a restarted manager never collides with the sessions it may later
// Recover.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Chaos.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	clus := cluster.New(cfg.Cluster)
	if cfg.Chaos.Seed == 0 {
		cfg.Chaos.Seed = clus.Config().Seed
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	cfg.Journal.Metrics = reg
	var chaos *failure.Schedule
	if cfg.Chaos.Enabled() {
		chaos = failure.NewSchedule(cfg.Chaos)
		// Backoff and injected delays sleep on the model clock, so chaos
		// runs at the same accelerated scale as everything else.
		chaos.SetSleeper(clus.Clock().Sleep)
		chaos.SetMetrics(reg)
		cfg.Journal.Chaos = chaos
		cfg.Journal.Retry = cfg.Retry
	}
	m := &Manager{
		cfg:     cfg,
		cluster: clus,
		chaos:   chaos,
		reg:     reg,
		active:  map[int64]*Session{},
		events:  newHub[SessionEvent](managerEventBuffer),
	}
	m.met = newCoreMetrics(m, reg)
	if cfg.Executor != executor.KindCentralized {
		exec, err := executorFor(cfg, cfg.Executor)
		if err != nil {
			return nil, err
		}
		broker, err := mq.NewBrokerSharded(cfg.Broker, m.cluster.Clock(), cfg.BrokerShards)
		if err != nil {
			return nil, err
		}
		m.exec = exec
		m.broker = broker
		broker.SetMetrics(reg)
		broker.SetChaos(chaos)
	}
	if cfg.Listen != "" {
		if m.broker == nil {
			return nil, fmt.Errorf("core: Listen %q: %w", cfg.Listen, ErrNoBroker)
		}
		if clus.Clock().Virtual() {
			// Worker processes share real wall-clock time with the
			// manager but cannot take part in its discrete-event
			// schedule, so TCP mode keeps the real clock (see DESIGN.md
			// "Virtual time").
			return nil, fmt.Errorf("core: Listen %q: %w", cfg.Listen, ErrVirtualListen)
		}
		srv, err := transport.Listen(cfg.Listen, transport.ServerConfig{Broker: m.broker, Chaos: chaos})
		if err != nil {
			return nil, err
		}
		m.server = srv
	}
	if cfg.Journal.Enabled() {
		j, err := journal.Open(cfg.Journal)
		if err != nil {
			return nil, err
		}
		ids, err := j.SessionIDs()
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if id > m.nextID {
				m.nextID = id
			}
		}
		m.journal = j
	}
	if cfg.MetricsAddr != "" {
		srv, err := obs.Serve(cfg.MetricsAddr, reg)
		if err != nil {
			return nil, fmt.Errorf("core: metrics listener %q: %w", cfg.MetricsAddr, err)
		}
		m.metricsSrv = srv
	}
	return m, nil
}

// Metrics exposes the manager's metrics registry (Config.Metrics, or
// the process-wide default when none was configured).
func (m *Manager) Metrics() *obs.Registry { return m.reg }

// MetricsAddr returns the metrics endpoint's bound address, resolving a
// ":0" Config.MetricsAddr to the picked port. Empty when the manager
// serves no metrics endpoint.
func (m *Manager) MetricsAddr() string {
	if m.metricsSrv == nil {
		return ""
	}
	return m.metricsSrv.Addr()
}

// ListenerAddr returns the transport listener's bound address — the
// dial target for ginflow-node workers, resolving a ":0" Config.Listen
// to the picked port. Empty when the manager has no listener.
func (m *Manager) ListenerAddr() string {
	if m.server == nil {
		return ""
	}
	return m.server.Addr()
}

// ConnectedNodes reports how many worker processes have joined the
// transport listener (0 without one). Node identities persist across
// connection drops, so a briefly-partitioned worker still counts.
func (m *Manager) ConnectedNodes() int {
	if m.server == nil {
		return 0
	}
	return m.server.NodeCount()
}

// EventsDropped reports how many merged-bus events were lost to slow
// consumers of Manager.Events.
func (m *Manager) EventsDropped() int64 { return m.events.droppedCount() }

// managerEventBuffer sizes the merged event bus's per-subscriber
// buffer: it must absorb bursts from many concurrent sessions, and like
// the per-session hubs it is lossy under backpressure.
const managerEventBuffer = 4096

// SessionEvent is one enactment event stamped with the session that
// emitted it — the element type of the manager-level merged event bus.
type SessionEvent struct {
	// SessionID identifies the emitting session.
	SessionID int64
	trace.Event
}

// Events returns a live merged stream of every session's enactment
// events, each stamped with its session ID — the observation point for
// dashboard-style consumers that watch the whole manager rather than
// one handle. Recovery announces each resumed session here with a
// SessionRecovered event. Delivery is lossy under backpressure, like
// Session.Events; the channel closes when the manager closes.
func (m *Manager) Events() <-chan SessionEvent {
	return m.events.subscribe()
}

// Cluster exposes the shared platform (tests and benchmarks assert on
// slot accounting).
func (m *Manager) Cluster() *cluster.Cluster { return m.cluster }

// Active returns the number of sessions currently running.
func (m *Manager) Active() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// SubmitConfig tunes one submission; built from SubmitOptions over the
// manager's defaults.
type SubmitConfig struct {
	// Timeout bounds the session in real time (default Config.Timeout).
	Timeout time.Duration
	// CollectTrace retains the full event timeline in Report.Events for
	// this session (default Config.CollectTrace).
	CollectTrace bool
	// Executor overrides the manager's executor for this session ("" =
	// manager default). Centralized narrows a distributed manager to a
	// single-interpreter debug run; a distributed kind on a distributed
	// manager swaps the deployment backend; a distributed kind on a
	// centralized manager fails with ErrNoBroker.
	Executor executor.Kind
}

// SubmitOption tunes one submission.
type SubmitOption func(*SubmitConfig)

// SubmitTimeout bounds the session in real time.
func SubmitTimeout(d time.Duration) SubmitOption {
	return func(c *SubmitConfig) { c.Timeout = d }
}

// SubmitTrace retains the session's full event timeline in
// Report.Events (live streaming via Session.Events needs no option).
func SubmitTrace() SubmitOption {
	return func(c *SubmitConfig) { c.CollectTrace = true }
}

// SubmitExecutor overrides the manager's executor for this session —
// e.g. a centralized debug run inside a distributed manager, or an SSH
// session on a Mesos manager. A distributed kind requires the manager
// to have a broker (ErrNoBroker otherwise).
func SubmitExecutor(k executor.Kind) SubmitOption {
	return func(c *SubmitConfig) { c.Executor = k }
}

// Submit starts a workflow session and returns its handle immediately;
// deployment and enactment proceed in the background. The submitting
// context bounds the whole session: cancelling it cancels the session.
// Submit validates the service bindings up front — a task or replacement
// task referencing a service the registry cannot resolve fails with
// ErrUnknownService before anything deploys.
//
// Under a virtual clock, a Submit from a goroutine outside the schedule
// lands at a wall-clock-dependent model instant: sessions already
// running keep consuming model time while the caller works. A caller
// that needs several sessions to start at one reproducible instant
// holds the run token across its Submit calls
// (Cluster().Clock().Enter() … Exit()).
//
// The write-ahead record is the one step that can block on the clock
// from the caller's goroutine: under journal chaos its retries back off
// on the cluster clock. On a virtual clock the caller must then hold the
// run token, or call while no session of this manager is running — an
// outside goroutine may block on a virtual clock only while its run
// token is free (the calling contract in internal/cluster/vclock.go;
// race-detector builds panic on a violation).
func (m *Manager) Submit(ctx context.Context, def *workflow.Definition, services *agent.Registry, opts ...SubmitOption) (*Session, error) {
	if def == nil {
		return nil, fmt.Errorf("core: nil workflow definition")
	}
	m.mu.Lock()
	closed := m.closed
	m.mu.Unlock()
	if closed {
		return nil, ErrManagerClosed
	}
	if err := checkServices(def, services); err != nil {
		return nil, err
	}

	sub := SubmitConfig{
		Timeout:      m.cfg.Timeout,
		CollectTrace: m.cfg.CollectTrace,
	}
	for _, opt := range opts {
		opt(&sub)
	}
	if sub.Timeout <= 0 {
		sub.Timeout = m.cfg.Timeout
	}

	exec, err := m.sessionExecutor(sub.Executor)
	if err != nil {
		return nil, err
	}

	// The session's cancel func must be in place before the session is
	// visible in m.active: a concurrent Close cancels whatever it finds
	// there.
	runCtx, cancel := m.cluster.Clock().WithCancelCause(ctx)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel(ErrManagerClosed)
		return nil, ErrManagerClosed
	}
	m.nextID++
	s := newSession(m, m.nextID, def, services, sub)
	s.cancel = cancel
	s.exec = exec
	m.active[s.id] = s
	m.wg.Add(1)
	m.mu.Unlock()

	// Journaling applies to distributed sessions (a centralized run has
	// no status stream to journal). The workflow record is durable
	// before any agent deploys — the write-ahead contract.
	if m.journal != nil && exec != nil {
		meta, err := sessionMeta(s)
		if err == nil {
			s.jw, err = m.journal.CreateSession(meta)
		}
		if err != nil {
			m.mu.Lock()
			delete(m.active, s.id)
			m.mu.Unlock()
			m.wg.Done()
			cancel(ErrCancelled)
			return nil, err
		}
	}

	// Under a virtual clock the session goroutine is a schedule
	// participant (Clock.Go); in real mode this is a plain goroutine.
	m.cluster.Clock().Go(func() {
		defer m.wg.Done()
		s.run(runCtx)
	})
	return s, nil
}

// sessionExecutor resolves a session's executor kind against the
// manager's shared backends: "" inherits the manager executor,
// centralized selects the single-interpreter path (nil executor), any
// other kind requires the shared broker.
func (m *Manager) sessionExecutor(kind executor.Kind) (executor.Executor, error) {
	switch kind {
	case "":
		return m.exec, nil
	case executor.KindCentralized:
		return nil, nil
	}
	if m.broker == nil {
		return nil, fmt.Errorf("core: session executor %q: %w", kind, ErrNoBroker)
	}
	if kind == m.cfg.Executor && m.exec != nil {
		return m.exec, nil
	}
	return executorFor(m.cfg, kind)
}

// sessionMeta builds the durable identity record of a session.
func sessionMeta(s *Session) (journal.SessionMeta, error) {
	defJSON, err := s.def.JSON()
	if err != nil {
		return journal.SessionMeta{}, err
	}
	return journal.SessionMeta{
		ID:           s.id,
		Workflow:     defJSON,
		TimeoutNS:    int64(s.sub.Timeout),
		CollectTrace: s.sub.CollectTrace,
		Executor:     string(s.sub.Executor),
	}, nil
}

// finish removes a completed session from the active set.
func (m *Manager) finish(s *Session) {
	m.mu.Lock()
	delete(m.active, s.id)
	m.mu.Unlock()
}

// Close cancels every active session, waits for them to unwind (nodes
// released, topics purged) and shuts the broker down. Submissions after
// Close fail with ErrManagerClosed.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	active := make([]*Session, 0, len(m.active))
	for _, s := range m.active {
		active = append(active, s)
	}
	m.mu.Unlock()

	for _, s := range active {
		s.Cancel(ErrManagerClosed)
	}
	m.wg.Wait()
	m.events.close()
	// The listener fronts the broker: shut it first so no remote
	// publish lands after the broker is gone.
	if m.server != nil {
		m.server.Close()
	}
	if m.metricsSrv != nil {
		m.metricsSrv.Close()
	}
	if m.broker != nil {
		return m.broker.Close()
	}
	return nil
}

// checkServices resolves every service referenced by the workflow's
// tasks and adaptation replacements against the registry.
func checkServices(def *workflow.Definition, services *agent.Registry) error {
	lookup := func(name, owner string) error {
		if name == "" {
			return nil
		}
		if services == nil {
			return fmt.Errorf("core: task %s: %w %q (nil registry)", owner, ErrUnknownService, name)
		}
		if _, ok := services.Lookup(name); !ok {
			return fmt.Errorf("core: task %s: %w %q", owner, ErrUnknownService, name)
		}
		return nil
	}
	for i := range def.Tasks {
		if err := lookup(def.Tasks[i].Service, def.Tasks[i].ID); err != nil {
			return err
		}
	}
	for i := range def.Adaptations {
		for j := range def.Adaptations[i].Replacement {
			r := &def.Adaptations[i].Replacement[j]
			if err := lookup(r.Service, r.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

// executorFor instantiates the executor of the given kind from the
// config's per-executor tuning sections.
func executorFor(cfg Config, kind executor.Kind) (executor.Executor, error) {
	switch kind {
	case executor.KindSSH:
		ssh := cfg.SSH
		return &ssh, nil
	case executor.KindMesos:
		m := cfg.Mesos
		return &m, nil
	case executor.KindEC2:
		e := cfg.EC2
		return &e, nil
	default:
		return nil, fmt.Errorf("core: unknown distributed executor %q", kind)
	}
}
