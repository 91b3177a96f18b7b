// Package failure is the system's one fault model: a seeded Schedule
// draws every fault the engine can inject, at every boundary it has —
// the paper's §V-D agent crashes, broker delivery, service invocation,
// executor deployment, journal I/O, the network transport and the space
// fold — so a faulty run can be replayed from its seed. Each boundary
// owns an independent RNG stream; within a boundary the draw sequence
// is fully determined by the seed, so the fault mix of a run is
// reproducible even though goroutine interleaving may vary which call
// site receives which draw.
package failure

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"ginflow/internal/obs"
)

// Boundary names a fault-injection point.
type Boundary int

// The boundaries the chaos schedule can perturb.
const (
	// BoundaryMessage is broker delivery fan-out: drop (with bounded
	// redelivery), duplicate, delay, reorder.
	BoundaryMessage Boundary = iota
	// BoundaryInvoke is service invocation: transient errors, timeouts,
	// slow-downs.
	BoundaryInvoke
	// BoundaryDeploy is executor deployment: transient errors.
	BoundaryDeploy
	// BoundaryJournalWrite is a journal record append: write errors and
	// torn (partial) writes.
	BoundaryJournalWrite
	// BoundaryJournalSync is the journal fsync: slow-downs.
	BoundaryJournalSync
	// BoundarySocket is the network transport's publish dispatch (the
	// TCP frame boundary between a remote node and the listener's
	// broker): drop (with bounded redelivery), duplicate, delay,
	// reorder — the real-network fault mix, applied after the frame
	// protocol's own dedup so the connection resume logic stays honest.
	BoundarySocket
	// BoundarySpace is the space-client boundary: the hand-off between
	// the broker's status-topic feed and the space fold. Faults defer
	// (never lose) or duplicate individual folds, exercising the version
	// gate and resync machinery from the consumer side.
	BoundarySpace
	// BoundaryAgentCrash is the paper's §V-D fault: one draw per service
	// invocation, crashing the agent incarnation a fixed time into its
	// service. Its draws are independent Bernoulli(AgentCrashP) trials —
	// MaxConsecutive does not apply — because a restarted agent can
	// crash again, which is what makes p/(1-p) × N_T the expected
	// failure count.
	BoundaryAgentCrash

	boundaryCount
)

// String returns the boundary's name.
func (b Boundary) String() string {
	switch b {
	case BoundaryMessage:
		return "message"
	case BoundaryInvoke:
		return "invoke"
	case BoundaryDeploy:
		return "deploy"
	case BoundaryJournalWrite:
		return "journal-write"
	case BoundaryJournalSync:
		return "journal-sync"
	case BoundarySocket:
		return "socket"
	case BoundarySpace:
		return "space"
	case BoundaryAgentCrash:
		return "agent-crash"
	}
	return fmt.Sprintf("boundary(%d)", int(b))
}

// FaultKind classifies an injected fault.
type FaultKind int

// The fault kinds a draw can return. Not every kind applies to every
// boundary; see ChaosConfig for the per-boundary probabilities.
const (
	// FaultNone is the (common) no-fault outcome.
	FaultNone FaultKind = iota
	// FaultDrop suppresses a message delivery attempt.
	FaultDrop
	// FaultDuplicate delivers a message twice.
	FaultDuplicate
	// FaultDelay postpones a delivery by Fault.Delay model seconds.
	FaultDelay
	// FaultReorder swaps a delivery with its predecessor in the batch.
	FaultReorder
	// FaultError fails an operation with a transient error.
	FaultError
	// FaultTimeout makes an invocation run its full duration and then
	// fail — the service executed but its response was lost.
	FaultTimeout
	// FaultSlow stretches an operation by Fault.Delay model seconds.
	FaultSlow
	// FaultTorn persists only a prefix of a journal write.
	FaultTorn
	// FaultCrash kills the agent incarnation Fault.Delay model seconds
	// into its service invocation.
	FaultCrash
)

// String returns the fault kind's name.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultDelay:
		return "delay"
	case FaultReorder:
		return "reorder"
	case FaultError:
		return "error"
	case FaultTimeout:
		return "timeout"
	case FaultSlow:
		return "slow"
	case FaultTorn:
		return "torn"
	case FaultCrash:
		return "crash"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Injected-fault sentinels. ErrInjected is the root every injected
// error wraps, so call sites can tell chaos from genuine failures;
// ErrRetriesExhausted marks a bounded retry budget running out (the
// supervisor escalates it into a session failure).
var (
	ErrInjected         = errors.New("injected fault")
	ErrRetriesExhausted = errors.New("retries exhausted")
)

// Preallocated injected errors, one per fault site, all wrapping
// ErrInjected.
var (
	errInvoke      = fmt.Errorf("%w: transient service invocation error", ErrInjected)
	errTimeout     = fmt.Errorf("%w: service invocation timed out", ErrInjected)
	errDeploy      = fmt.Errorf("%w: transient deployment error", ErrInjected)
	errJournal     = fmt.Errorf("%w: journal write error", ErrInjected)
	errJournalTorn = fmt.Errorf("%w: torn journal write", ErrInjected)
)

// Fault is one drawn perturbation.
type Fault struct {
	// Kind classifies the fault; FaultNone means proceed untouched.
	Kind FaultKind
	// Delay is the fault's duration in model seconds (delays,
	// slow-downs) or, for a crash, its offset into the service; zero
	// otherwise.
	Delay float64
	// Err is the error the operation should surface, nil for kinds that
	// only shift timing.
	Err error
}

// ChaosConfig parameterises a fault schedule. All probabilities are per
// draw in [0,1]; the kinds of one boundary are mutually exclusive per
// draw (their probabilities are read as adjacent intervals, so their
// sum must stay ≤ 1; Validate checks). Durations are model seconds.
// The zero value disables chaos entirely.
type ChaosConfig struct {
	// Seed selects the deterministic fault schedule; runs with the same
	// seed and config draw identical per-boundary fault sequences. The
	// engine replaces a zero Seed with its cluster seed.
	Seed int64

	// AgentCrashP is the probability that a service invocation crashes
	// its agent incarnation (§V-D). The supervisor respawns the agent,
	// which replays its inbox and may crash again.
	AgentCrashP float64
	// AgentCrashAfter is how long into the service the crash hits, in
	// model seconds. An invocation shorter than that completes: only
	// services longer than AgentCrashAfter are at risk.
	AgentCrashAfter float64

	// MessageDropP is the probability a delivery attempt is dropped.
	// Dropped deliveries are redelivered after RedeliverDelay (bounded),
	// so transport stays at-least-once — the floor the sequence-number
	// dedup turns into exactly-once.
	MessageDropP float64
	// MessageDupP is the probability a delivery is duplicated.
	MessageDupP float64
	// MessageDelayP is the probability a delivery is delayed by up to
	// MessageDelayMax model seconds.
	MessageDelayP float64
	// MessageDelayMax bounds injected delivery delays (default 8).
	MessageDelayMax float64
	// MessageReorderP is the probability a delivery is swapped with its
	// predecessor in the subscriber's pending batch.
	MessageReorderP float64
	// RedeliverDelay is the model-time lag before a dropped or
	// duplicated delivery is (re)attempted (default 4).
	RedeliverDelay float64

	// InvokeErrorP is the probability a service invocation fails fast
	// with a transient error.
	InvokeErrorP float64
	// InvokeTimeoutP is the probability an invocation runs its full
	// duration and then fails (response lost).
	InvokeTimeoutP float64
	// InvokeSlowP is the probability an invocation is stretched by up to
	// InvokeSlowMax model seconds.
	InvokeSlowP float64
	// InvokeSlowMax bounds injected invocation slow-downs (default 10).
	InvokeSlowMax float64

	// DeployErrorP is the probability a deployment attempt fails with a
	// transient error.
	DeployErrorP float64

	// JournalErrorP is the probability a journal write fails without
	// touching the segment.
	JournalErrorP float64
	// JournalTornP is the probability a journal write persists only a
	// prefix of its frame before failing.
	JournalTornP float64
	// JournalSlowSyncP is the probability an fsync stalls for up to
	// JournalSyncDelayMax model seconds.
	JournalSlowSyncP float64
	// JournalSyncDelayMax bounds injected fsync stalls (default 2).
	JournalSyncDelayMax float64

	// SocketDropP is the probability a transport-level publish dispatch
	// is dropped. Like broker drops, a dropped dispatch is re-attempted
	// after RedeliverDelay (bounded), so the socket stays at-least-once.
	SocketDropP float64
	// SocketDupP is the probability a transport-level publish is
	// dispatched twice (the second copy after RedeliverDelay).
	SocketDupP float64
	// SocketDelayP is the probability a transport-level publish is
	// delayed by up to SocketDelayMax model seconds before reaching the
	// broker — a genuine reordering against concurrent traffic.
	SocketDelayP float64
	// SocketDelayMax bounds injected socket delays (default 8).
	SocketDelayMax float64
	// SocketReorderP is the probability a transport-level publish is
	// held back for RedeliverDelay so the dispatch behind it overtakes.
	SocketReorderP float64

	// SpaceDropP is the probability one status message's fold into the
	// space is deferred to a later batch (never lost: the space flushes
	// deferred messages on subsequent folds and at shutdown).
	SpaceDropP float64
	// SpaceDupP is the probability one status message is folded twice.
	SpaceDupP float64

	// MaxConsecutive forces a no-fault draw after this many consecutive
	// faults on one boundary, keeping retry budgets sufficient (default
	// 3; negative disables the cap). Agent crashes are never capped.
	MaxConsecutive int
}

// faultKind is one fault a boundary can draw: probability p of kind,
// carrying err and a delay of fixed plus a uniform draw in [0, spread).
type faultKind struct {
	p             float64
	kind          FaultKind
	err           error
	fixed, spread float64
}

// maxKinds is the most faults one boundary has.
const maxKinds = 4

// kinds lists each boundary's faults in the order Draw lays their
// probability intervals out (unused slots have p = 0); the one place
// that knows which faults a boundary has. Durations are read as given
// (withDefaults first for a live schedule).
func (c ChaosConfig) kinds() (k [boundaryCount][maxKinds]faultKind) {
	k[BoundaryMessage] = [maxKinds]faultKind{
		{p: c.MessageDropP, kind: FaultDrop},
		{p: c.MessageDupP, kind: FaultDuplicate},
		{p: c.MessageDelayP, kind: FaultDelay, spread: c.MessageDelayMax},
		{p: c.MessageReorderP, kind: FaultReorder},
	}
	k[BoundaryInvoke] = [maxKinds]faultKind{
		{p: c.InvokeErrorP, kind: FaultError, err: errInvoke},
		{p: c.InvokeTimeoutP, kind: FaultTimeout, err: errTimeout},
		{p: c.InvokeSlowP, kind: FaultSlow, spread: c.InvokeSlowMax},
	}
	k[BoundaryDeploy] = [maxKinds]faultKind{{p: c.DeployErrorP, kind: FaultError, err: errDeploy}}
	k[BoundaryJournalWrite] = [maxKinds]faultKind{
		{p: c.JournalErrorP, kind: FaultError, err: errJournal},
		{p: c.JournalTornP, kind: FaultTorn, err: errJournalTorn},
	}
	k[BoundaryJournalSync] = [maxKinds]faultKind{{p: c.JournalSlowSyncP, kind: FaultSlow, spread: c.JournalSyncDelayMax}}
	k[BoundarySocket] = [maxKinds]faultKind{
		{p: c.SocketDropP, kind: FaultDrop},
		{p: c.SocketDupP, kind: FaultDuplicate},
		{p: c.SocketDelayP, kind: FaultDelay, spread: c.SocketDelayMax},
		{p: c.SocketReorderP, kind: FaultReorder},
	}
	k[BoundarySpace] = [maxKinds]faultKind{{p: c.SpaceDropP, kind: FaultDrop}, {p: c.SpaceDupP, kind: FaultDuplicate}}
	k[BoundaryAgentCrash] = [maxKinds]faultKind{{p: c.AgentCrashP, kind: FaultCrash, fixed: c.AgentCrashAfter}}
	return k
}

// active reports whether boundary b can fault under c.
func (c ChaosConfig) active(b Boundary) bool {
	for _, k := range c.kinds()[b] {
		if k.p > 0 {
			return true
		}
	}
	return false
}

// Enabled reports whether any fault probability is set.
func (c ChaosConfig) Enabled() bool {
	for b := Boundary(0); b < boundaryCount; b++ {
		if c.active(b) {
			return true
		}
	}
	return false
}

// Validate rejects a config that cannot be read as a fault schedule: a
// probability outside [0, 1], a boundary whose kinds sum above 1, or a
// negative duration. The engine checks a config where it enters the
// program — the manager's options and a worker's assignment.
func (c ChaosConfig) Validate() error {
	for b, ks := range c.kinds() {
		var sum float64
		for _, k := range ks {
			if !(k.p >= 0 && k.p <= 1) {
				return fmt.Errorf("chaos %s probability %v outside [0, 1]", Boundary(b), k.p)
			}
			sum += k.p
		}
		if sum > 1 {
			return fmt.Errorf("chaos %s probabilities sum to %v > 1", Boundary(b), sum)
		}
	}
	for _, d := range []struct {
		name string
		v    float64
	}{
		{"AgentCrashAfter", c.AgentCrashAfter}, {"MessageDelayMax", c.MessageDelayMax},
		{"RedeliverDelay", c.RedeliverDelay}, {"InvokeSlowMax", c.InvokeSlowMax},
		{"JournalSyncDelayMax", c.JournalSyncDelayMax}, {"SocketDelayMax", c.SocketDelayMax},
	} {
		if !(d.v >= 0) {
			return fmt.Errorf("chaos %s %v is negative", d.name, d.v)
		}
	}
	return nil
}

// withDefaults fills unset durations and caps.
func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.MessageDelayMax <= 0 {
		c.MessageDelayMax = 8
	}
	if c.RedeliverDelay <= 0 {
		c.RedeliverDelay = 4
	}
	if c.InvokeSlowMax <= 0 {
		c.InvokeSlowMax = 10
	}
	if c.JournalSyncDelayMax <= 0 {
		c.JournalSyncDelayMax = 2
	}
	if c.SocketDelayMax <= 0 {
		c.SocketDelayMax = 8
	}
	if c.MaxConsecutive == 0 {
		c.MaxConsecutive = 3
	}
	return c
}

// SettleSeconds returns the model-time drain the engine should wait
// after completion before reading final state: long enough for the
// worst redelivery chain and the largest injected delay to land. Zero
// when no message faults are configured.
func (c ChaosConfig) SettleSeconds() float64 {
	msg, sock, space := c.active(BoundaryMessage), c.active(BoundarySocket), c.active(BoundarySpace)
	if !msg && !sock && !space {
		return 0
	}
	c = c.withDefaults()
	var d float64
	if msg {
		d += c.MessageDelayMax + 3*c.RedeliverDelay + 2
	}
	if sock {
		// A socket fault feeds the broker late; its worst chain stacks on
		// top of whatever the message boundary may add afterwards.
		d += c.SocketDelayMax + 3*c.RedeliverDelay + 2
	}
	if space {
		// Deferred folds flush on the next batch or the serve loop's
		// real-time ticker; a small drain covers the tail.
		d += 2
	}
	return d
}

// RetryConfig bounds the retry-with-backoff applied to transient faults
// at the invocation, deployment and journal boundaries. The zero value
// means defaults: 5 attempts, 0.5 model-second base backoff, factor 2.
type RetryConfig struct {
	// MaxAttempts is the total attempt budget (first try included).
	MaxAttempts int
	// BackoffBase is the delay after the first failed attempt, in model
	// seconds.
	BackoffBase float64
	// BackoffFactor multiplies the delay after each further failure.
	BackoffFactor float64
}

// WithDefaults fills unset fields with the documented defaults.
func (c RetryConfig) WithDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 0.5
	}
	if c.BackoffFactor <= 0 {
		c.BackoffFactor = 2
	}
	return c
}

// Delay returns the backoff before attempt+1, given that 1-based
// attempt just failed: BackoffBase × BackoffFactor^(attempt-1).
func (c RetryConfig) Delay(attempt int) float64 {
	d := c.BackoffBase
	for i := 1; i < attempt; i++ {
		d *= c.BackoffFactor
	}
	return d
}

// RideOut rides out the invocation-boundary faults drawn for one
// service call of dur model seconds under the retry budget rc, and
// returns how long the call that goes through takes: dur, or dur plus a
// slow fault's delay. An error fault costs its delay and a timeout the
// whole dur (the service ran to its deadline before the response was
// lost); each is charged through sleep, reported to onFault (nil
// ignores it) and retried after rc's backoff. A spent budget returns
// the attempts made and the last fault's error; a sleep error returns
// as is, with attempts 0.
func (s *Schedule) RideOut(dur float64, rc RetryConfig, sleep func(float64) error, onFault func(attempt int, f Fault)) (took float64, attempts int, err error) {
	rc = rc.WithDefaults()
	for attempt := 1; ; attempt++ {
		f := s.Draw(BoundaryInvoke)
		switch f.Kind {
		case FaultSlow:
			return dur + f.Delay, 0, nil
		case FaultError, FaultTimeout:
			cost := f.Delay
			if f.Kind == FaultTimeout {
				cost = dur
			}
			if err := sleep(cost); err != nil {
				return 0, 0, err
			}
			if onFault != nil {
				onFault(attempt, f)
			}
			if attempt >= rc.MaxAttempts {
				return 0, attempt, f.Err
			}
			if err := sleep(rc.Delay(attempt)); err != nil {
				return 0, 0, err
			}
		default:
			return dur, 0, nil
		}
	}
}

// Schedule is a live fault schedule: per-boundary seeded RNG streams,
// fault counters, and the consecutive-fault cap. All methods are safe
// for concurrent use and safe on a nil receiver (a nil *Schedule never
// injects), so call sites need no guards.
type Schedule struct {
	cfg     ChaosConfig
	active  [boundaryCount]bool
	kinds   [boundaryCount][maxKinds]faultKind
	points  [boundaryCount]chaosPoint
	sleepMu sync.RWMutex
	sleeper func(seconds float64)

	// obsDraws / obsFaults mirror the per-boundary draw and injected-
	// fault counts into a metrics registry (SetMetrics); nil entries
	// are ignored, so an un-wired schedule costs nothing extra.
	obsDraws  [boundaryCount]*obs.Counter
	obsFaults [boundaryCount]*obs.Counter
}

// SetMetrics mirrors the schedule's per-boundary draw and fault counts
// into reg: ginflow_chaos_draws_total{boundary} counts every Draw and
// ginflow_chaos_faults_total{boundary} the draws that injected a fault.
// Install before traffic flows (counters start at the call).
func (s *Schedule) SetMetrics(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	for b := Boundary(0); b < boundaryCount; b++ {
		lbl := obs.L("boundary", b.String())
		s.obsDraws[b] = reg.Counter("ginflow_chaos_draws_total",
			"Fault-schedule draws per boundary.", lbl)
		s.obsFaults[b] = reg.Counter("ginflow_chaos_faults_total",
			"Injected chaos faults per boundary.", lbl)
	}
}

type chaosPoint struct {
	mu     sync.Mutex
	rng    *rand.Rand
	consec int
	faults int64
}

// NewSchedule builds a schedule from cfg (defaults applied). The
// returned schedule injects nothing until the config has a non-zero
// probability; install a sleeper with SetSleeper to give backoff and
// stall faults a clock.
func NewSchedule(cfg ChaosConfig) *Schedule {
	cfg = cfg.withDefaults()
	s := &Schedule{cfg: cfg, kinds: cfg.kinds()}
	for b := Boundary(0); b < boundaryCount; b++ {
		s.active[b] = cfg.active(b)
		s.points[b].rng = rand.New(rand.NewSource(splitmix(cfg.Seed ^ int64(b+1))))
	}
	return s
}

// splitmix finalises a seed so adjacent boundary seeds land far apart.
func splitmix(x int64) int64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Active reports whether boundary b can fault under the schedule. A
// call site with a fault branch takes it only when its boundary is
// active, so a schedule that faults elsewhere leaves it on its no-chaos
// path.
func (s *Schedule) Active(b Boundary) bool {
	return s != nil && b >= 0 && b < boundaryCount && s.active[b]
}

// Config returns the schedule's defaults-applied configuration (zero
// value on a nil schedule).
func (s *Schedule) Config() ChaosConfig {
	if s == nil {
		return ChaosConfig{}
	}
	return s.cfg
}

// SettleSeconds returns the post-completion drain the configuration
// calls for (zero on a nil schedule).
func (s *Schedule) SettleSeconds() float64 {
	if s == nil {
		return 0
	}
	return s.cfg.SettleSeconds()
}

// SetSleeper installs the clock used by Sleep — normally the cluster
// clock's Sleep, so chaos stalls and retry backoffs advance model time.
func (s *Schedule) SetSleeper(fn func(seconds float64)) {
	if s == nil {
		return
	}
	s.sleepMu.Lock()
	s.sleeper = fn
	s.sleepMu.Unlock()
}

// Sleep stalls for the given model seconds on the installed sleeper;
// without one (or on a nil schedule) it returns immediately.
func (s *Schedule) Sleep(seconds float64) {
	if s == nil || seconds <= 0 {
		return
	}
	s.sleepMu.RLock()
	fn := s.sleeper
	s.sleepMu.RUnlock()
	if fn != nil {
		fn(seconds)
	}
}

// Draw returns the next fault of a boundary's stream; an inactive
// boundary returns FaultNone without drawing. After MaxConsecutive
// consecutive faults on one boundary the next draw is forced to
// FaultNone, so bounded retries always see a success window — except on
// BoundaryAgentCrash, whose draws stay independent.
func (s *Schedule) Draw(b Boundary) Fault {
	if !s.Active(b) {
		return Fault{}
	}
	p := &s.points[b]
	p.mu.Lock()
	defer p.mu.Unlock()
	s.obsDraws[b].Inc()
	if b != BoundaryAgentCrash && s.cfg.MaxConsecutive > 0 && p.consec >= s.cfg.MaxConsecutive {
		p.consec = 0
		return Fault{}
	}
	f := s.drawLocked(b, p.rng)
	if f.Kind == FaultNone {
		p.consec = 0
	} else {
		p.consec++
		p.faults++
		s.obsFaults[b].Inc()
	}
	return f
}

// drawLocked maps one uniform draw onto the boundary's fault intervals.
func (s *Schedule) drawLocked(b Boundary, rng *rand.Rand) Fault {
	x := rng.Float64()
	for _, k := range s.kinds[b] {
		if x < k.p {
			f := Fault{Kind: k.kind, Delay: k.fixed, Err: k.err}
			if k.spread > 0 {
				f.Delay += rng.Float64() * k.spread
			}
			return f
		}
		x -= k.p
	}
	return Fault{}
}

// Faults returns the total number of injected (non-FaultNone) draws.
func (s *Schedule) Faults() int64 {
	if s == nil {
		return 0
	}
	var total int64
	for b := range s.points {
		p := &s.points[b]
		p.mu.Lock()
		total += p.faults
		p.mu.Unlock()
	}
	return total
}
