package cluster

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"time"
)

// Virtual time — a discrete-event scheduler behind the model Clock.
//
// In virtual mode the clock never sleeps real time. Instead, every
// goroutine that takes part in a run is a *participant* in a
// cooperative, single-run-token schedule: exactly one participant
// executes at any instant, and every blocking boundary (modelled
// sleeps, broker delivery waits, space condition waits) releases the
// token back to the scheduler. When the ready queue is empty the
// scheduler advances Now() to the earliest pending timer deadline and
// fires it — ties break by timer registration order — so the whole
// interleaving, and therefore every model-time stamp a run reports, is
// a deterministic function of the call sequence.
//
// The token discipline is what makes this sound where a plain waiter
// registry would not be: a goroutine woken through a Go channel
// rendezvous is invisible to any registry and would leave a window in
// which the system looks quiescent while work is still runnable,
// advancing time early and nondeterministically. Here nothing runs
// without holding the token, so "ready queue empty" *is* quiescence.
// The cost of the discipline is that an accounting mistake manifests
// as a deterministic hang (debuggable), never as a flaky timestamp.
//
// The calling contract: a goroutine blocks through the clock (Sleep,
// SleepCtx, Cond.Wait) only while it holds the run token — it was
// started by Clock.Go or joined with Clock.Enter — or while the token
// is free. A blocking call therefore needs no identity check. If the
// token is held, the caller is the participant running, and hands it
// on. If it is free, the caller is an *outsider* (e.g. a journal retry
// backoff on a Submit caller's goroutine, with no session running yet)
// that joins the schedule for this one block and gives the token back
// on wake. A goroutine outside the schedule that may overlap running
// participants brackets its blocking calls with Clock.Enter/Exit.
// Race-detector builds check the contract on every blocking call
// (vclock_check_race.go); other builds compile the check away.

// waiter states. A participant owns one waiter for its whole life in
// the schedule (an outsider gets one per block). Each block re-arms it
// with a fresh registration seq; it then lives in at most one of the
// timer heap / a Cond's list plus optionally one context group, and is
// granted the run token exactly once.
const (
	stBlocked = iota // parked on a timer deadline or a Cond
	stQueued         // moved to the ready queue, awaiting the token
	stGranted        // token sent; the goroutine is (about to be) running
)

type vwaiter struct {
	// seq is the registration order of the current block — the
	// deterministic tie-breaker — and its generation stamp: a reference
	// taken for an earlier block carries an older seq and is stale.
	seq   uint64
	grant chan struct{} // buffered(1); a send transfers the run token
	state int

	// interrupted reports that the waiter was woken by its context
	// ending rather than by its timer/Cond. Written under the scheduler
	// lock before the grant send, read by the woken goroutine after the
	// grant receive.
	interrupted bool
	group       *ctxGroup // the context that can break this block; nil when not interruptible
}

// waitRef is a reference to one block of a waiter. It is stale once the
// waiter has left that block, or been re-armed for a later one.
type waitRef struct {
	w   *vwaiter
	seq uint64
}

func (r waitRef) blocked() bool { return r.w.seq == r.seq && r.w.state == stBlocked }

// ctxGroup is the interruptible waiters of one context, keyed by its
// Done channel. Thousands of parked agents share a session's context, so
// a sweep asks each *context* whether it has ended, not each waiter.
//
// A group is polled or owned. A polled group is made for any context
// when its first waiter blocks and lives while it has blocked waiters.
// An owned group is made with a clock-made context (withCancelCause)
// whose cancel func the scheduler hears, and lives until that cancel.
type ctxGroup struct {
	done    <-chan struct{}
	waiters []waitRef // registration order; stale entries are skipped
	live    int       // waiters still blocked
	owned   bool
}

// timerEntry is one pending deadline. It carries its own ordering keys,
// since the waiter it names may be re-armed while the entry is stale.
type timerEntry struct {
	at float64 // deadline in model seconds
	waitRef
}

// timerHeap is a min-heap of entries by (deadline, registration seq).
type timerHeap []timerEntry

func (h timerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *timerHeap) push(e timerEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *timerHeap) pop() timerEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = timerEntry{}
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// vsched is the discrete-event scheduler state shared by one virtual
// Clock and all its participants.
type vsched struct {
	mu      sync.Mutex
	now     float64
	seq     uint64
	running bool     // the run token is held by some participant
	cur     *vwaiter // the last grant's receiver: while running, the participant that holds the token
	ready   []*vwaiter
	head    int // ready[head:] is the queue; the backing array is kept when it drains
	timers  timerHeap
	// groups holds, per context, the waiters whose block that context's
	// ending can break. The sweep, which runs every time the scheduler is
	// about to advance model time (and on a real timer when the schedule
	// is otherwise idle, so even a stalled run can be torn down by a
	// real-time timeout), polls every polled group, but the owned groups
	// only when cancels moved since it last did: an owned context ends
	// only through its cancel func, which counts.
	groups  map[<-chan struct{}]*ctxGroup
	polled  []*ctxGroup
	owned   []*ctxGroup
	cancels uint64 // owned cancels so far
	swept   uint64 // cancels as of the last sweep of the owned groups
	idleArm bool   // an idle-poll AfterFunc is pending

	chk tokenCheck // the calling-contract check; empty outside race builds
}

func newVsched() *vsched {
	return &vsched{groups: map[<-chan struct{}]*ctxGroup{}}
}

// releaseLocked frees the run token and hands it to the next runnable
// participant. Callers hold v.mu.
func (v *vsched) releaseLocked() {
	v.running = false
	v.scheduleLocked()
}

// queueLocked appends w to the ready queue, first sliding the queue to
// the front of its backing array when the array is full.
func (v *vsched) queueLocked(w *vwaiter) {
	w.state = stQueued
	if v.head > 0 && len(v.ready) == cap(v.ready) {
		n := copy(v.ready, v.ready[v.head:])
		clear(v.ready[n:])
		v.ready, v.head = v.ready[:n], 0
	}
	v.ready = append(v.ready, w)
}

// joinLocked queues a new participant's waiter.
func (v *vsched) joinLocked() *vwaiter {
	v.seq++
	w := &vwaiter{seq: v.seq, grant: make(chan struct{}, 1)}
	v.queueLocked(w)
	return w
}

// blockerLocked arms the waiter for the caller's next block. A caller
// that finds the token held is the participant holding it (the calling
// contract), so it re-arms its own waiter, grant channel included; an
// outsider gets a fresh one.
func (v *vsched) blockerLocked() *vwaiter {
	w := v.cur
	if !v.running {
		w = &vwaiter{grant: make(chan struct{}, 1)}
	}
	v.seq++
	w.seq = v.seq
	w.state = stBlocked
	w.interrupted = false
	return w
}

// watchLocked makes w's block interruptible by ctx ending. ctx may be
// nil or never-ending (uninterruptible).
func (v *vsched) watchLocked(w *vwaiter, ctx context.Context) {
	if ctx == nil {
		return
	}
	done := ctx.Done()
	if done == nil {
		return
	}
	g := v.groups[done]
	if g == nil {
		g = &ctxGroup{done: done}
		v.groups[done] = g
		v.polled = append(v.polled, g)
	}
	// Compact once stale entries outnumber live ones 2:1 (amortised O(1)
	// per registration), so a long-lived context's slice stays O(live).
	if len(g.waiters) > 3*g.live+8 {
		kept := g.waiters[:0]
		for _, r := range g.waiters {
			if r.blocked() {
				kept = append(kept, r)
			}
		}
		clear(g.waiters[len(kept):])
		g.waiters = kept
	}
	g.waiters = append(g.waiters, waitRef{w, w.seq})
	g.live++
	w.group = g
}

// unwatchLocked records that w left stBlocked by its timer or Cond: its
// context has one waiter fewer to wake. A polled group leaves the map
// with its last waiter; an owned one stays until its cancel.
func (v *vsched) unwatchLocked(w *vwaiter) {
	g := w.group
	if g == nil {
		return
	}
	w.group = nil
	g.live--
	if g.live > 0 {
		return
	}
	clear(g.waiters)
	g.waiters = g.waiters[:0]
	if !g.owned {
		delete(v.groups, g.done)
		g.waiters = nil
	}
}

// scheduleLocked hands the run token to the next runnable participant:
// ready queue first (FIFO), else the earliest pending timer — advancing
// model time to its deadline. Called with v.mu held and the token free.
func (v *vsched) scheduleLocked() {
	for {
		if v.running {
			return
		}
		if v.head < len(v.ready) {
			w := v.ready[v.head]
			v.ready[v.head] = nil
			v.head++
			if v.head == len(v.ready) {
				v.ready, v.head = v.ready[:0], 0
			}
			v.grantLocked(w)
			return
		}
		// About to advance time: first honour any cancellations that
		// already happened.
		if v.sweepCancelledLocked() {
			continue
		}
		for len(v.timers) > 0 {
			e := v.timers.pop()
			if !e.blocked() {
				continue // cancelled, already woken or re-armed; the entry is stale
			}
			if e.at > v.now {
				v.now = e.at
			}
			v.unwatchLocked(e.w)
			v.grantLocked(e.w)
			return
		}
		// Idle. If waiters on polled contexts remain, a real-time timeout
		// may still cancel them (a stalled run being torn down) — poll.
		v.armIdlePollLocked()
		return
	}
}

// grantLocked hands the free run token to w.
func (v *vsched) grantLocked(w *vwaiter) {
	w.state = stGranted
	v.running = true
	v.cur = w
	v.noteGrantLocked()
	w.grant <- struct{}{}
}

// sweepCancelledLocked moves every interruptible waiter whose context
// has ended to the ready queue, in registration order across contexts,
// and drops emptied groups. It polls each context once — O(polled
// contexts), plus the owned ones only after an owned cancel — and walks
// a group's waiters only when its context has ended. Reports whether
// any waiter was moved.
func (v *vsched) sweepCancelledLocked() bool {
	var woken []*vwaiter
	v.polled, woken = v.sweepGroupsLocked(v.polled, woken)
	if v.swept != v.cancels {
		v.swept = v.cancels
		v.owned, woken = v.sweepGroupsLocked(v.owned, woken)
	} else {
		v.checkOwnedLocked()
	}
	if len(woken) == 0 {
		return false
	}
	slices.SortFunc(woken, func(a, b *vwaiter) int { return cmp.Compare(a.seq, b.seq) })
	for _, w := range woken {
		v.queueLocked(w)
	}
	return true
}

// sweepGroupsLocked polls each group of list, appends the blocked
// waiters of ended contexts to woken, and returns the groups still
// watched. A polled group without waiters is already out of the map and
// is dropped unpolled.
func (v *vsched) sweepGroupsLocked(list []*ctxGroup, woken []*vwaiter) ([]*ctxGroup, []*vwaiter) {
	kept := list[:0]
	for _, g := range list {
		if g.live == 0 && !g.owned {
			continue
		}
		select {
		case <-g.done:
			for _, r := range g.waiters {
				if r.blocked() {
					r.w.interrupted = true
					r.w.state = stQueued
					r.w.group = nil
					woken = append(woken, r.w)
				}
			}
			delete(v.groups, g.done)
		default:
			kept = append(kept, g)
		}
	}
	clear(list[len(kept):])
	return kept, woken
}

// idlePollInterval is the real-time cadence at which an otherwise idle
// virtual schedule re-checks interruptible waiters. It only matters for
// stalled runs cancelled from outside through a context the scheduler
// does not own; an owned cancel wakes an idle schedule itself.
const idlePollInterval = 2 * time.Millisecond

func (v *vsched) armIdlePollLocked() {
	if v.idleArm {
		return
	}
	if len(v.polled) == 0 {
		return // nobody parked on a context the scheduler cannot hear
	}
	v.idleArm = true
	time.AfterFunc(idlePollInterval, func() {
		v.mu.Lock()
		v.idleArm = false
		if !v.running && v.head == len(v.ready) && len(v.timers) == 0 {
			if v.sweepCancelledLocked() {
				v.scheduleLocked()
			} else {
				v.armIdlePollLocked()
			}
		}
		v.mu.Unlock()
	})
}

// withCancelCause is Clock.WithCancelCause on a virtual clock. The
// context is owned — its group made now and its cancel heard — when its
// parent never ends or is owned itself: then only an owned cancel func,
// which closes Done and counts in one critical section, can end it. A
// child of any other context ends when its parent does, uncounted, so
// it is polled like a plain context.
func (v *vsched) withCancelCause(parent context.Context) (context.Context, context.CancelCauseFunc) {
	v.mu.Lock()
	defer v.mu.Unlock()
	ctx, cancel := context.WithCancelCause(parent)
	if pd := parent.Done(); pd != nil {
		if pg := v.groups[pd]; pg == nil || !pg.owned {
			return ctx, cancel
		}
	}
	g := &ctxGroup{done: ctx.Done(), owned: true}
	v.groups[g.done] = g
	v.owned = append(v.owned, g)
	return ctx, func(cause error) {
		v.mu.Lock()
		defer v.mu.Unlock()
		if ctx.Err() != nil {
			return
		}
		cancel(cause) // closes the owned children's Done too, synchronously
		v.cancels++
		if g.live == 0 {
			delete(v.groups, g.done)
		}
		if !v.running {
			v.scheduleLocked() // an idle schedule: wake the waiters now
		}
	}
}

// enter registers the calling goroutine as a participant and blocks
// until it is granted the run token.
func (v *vsched) enter() {
	v.mu.Lock()
	w := v.joinLocked()
	v.scheduleLocked()
	v.mu.Unlock()
	<-w.grant
	v.noteGranted()
}

// exit releases the run token without re-queuing: the participant is
// leaving the schedule.
func (v *vsched) exit() {
	v.mu.Lock()
	v.releaseLocked()
	v.mu.Unlock()
}

// goRun spawns fn as a new participant. The spawn is queued
// synchronously (so sibling order is the call order); fn starts running
// once the scheduler grants it the token.
func (v *vsched) goRun(fn func()) {
	v.mu.Lock()
	w := v.joinLocked()
	v.scheduleLocked() // no-op when the caller holds the token
	v.mu.Unlock()
	go func() {
		<-w.grant
		v.noteGranted()
		fn()
		v.exit()
	}()
}

// sleep parks the caller until now+seconds, or until ctx ends.
// Non-positive durations return immediately, matching the real clock.
// ctx may be nil (uninterruptible).
func (v *vsched) sleep(ctx context.Context, seconds float64) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if seconds <= 0 {
		return nil
	}
	v.mu.Lock()
	v.checkBlockLocked("Clock.Sleep")
	w := v.blockerLocked()
	v.timers.push(timerEntry{at: v.now + seconds, waitRef: waitRef{w, w.seq}})
	return v.blockLocked(ctx, w)
}

// blockLocked parks the caller on w, just registered on a timer or a
// Cond, and returns once w is granted the token. A token held on entry
// is the caller's (the calling contract): it is released here and the
// grant hands it back. A free token makes the caller an outsider, which
// joins the schedule for this block only and frees the token again on
// wake. Called with v.mu held; returns with it released.
func (v *vsched) blockLocked(ctx context.Context, w *vwaiter) error {
	participant := v.running
	v.watchLocked(w, ctx)
	v.running = false
	v.scheduleLocked()
	v.mu.Unlock()
	<-w.grant
	if participant {
		v.noteGranted()
	} else {
		v.exit()
	}
	if w.interrupted {
		return ctx.Err()
	}
	return nil
}

func (v *vsched) nowModel() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Cond is a scheduler-aware condition variable for virtual mode: the
// replacement for channel-based waits, which a single-token schedule
// cannot express (an unbuffered rendezvous needs two goroutines
// runnable at once). Wait releases the run token; Broadcast moves every
// current waiter to the ready queue in wait order. Code waits through
// Wake, which uses one on a virtual clock.
type Cond struct {
	v       *vsched
	waiters []waitRef // stale entries are skipped
	first   [1]waitRef
}

// Wait releases the run token and parks the caller until Broadcast (or
// ctx ending, which returns ctx.Err()). The caller holds the run token,
// or calls while it is free (the calling contract at the top of this
// file). Re-check the guarded condition on return, as with sync.Cond.
func (cd *Cond) Wait(ctx context.Context) error {
	v := cd.v
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	v.mu.Lock()
	v.checkBlockLocked("Cond.Wait")
	w := v.blockerLocked()
	if cd.waiters == nil {
		cd.waiters = cd.first[:0] // a Wake has one consumer: no allocation
	}
	cd.waiters = append(cd.waiters, waitRef{w, w.seq})
	return v.blockLocked(ctx, w)
}

// Broadcast wakes every goroutine currently parked in Wait, in the
// order they began waiting. The caller should hold the run token (a
// participant); the wakes take effect when the token is next released.
func (cd *Cond) Broadcast() {
	v := cd.v
	v.mu.Lock()
	for _, r := range cd.waiters {
		if !r.blocked() {
			continue // already woken by cancellation
		}
		v.unwatchLocked(r.w)
		v.queueLocked(r.w)
	}
	clear(cd.waiters)
	cd.waiters = cd.waiters[:0]
	v.scheduleLocked() // no-op when the broadcaster holds the token
	v.mu.Unlock()
}
