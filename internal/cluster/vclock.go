package cluster

import (
	"container/heap"
	"context"
	"sort"
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
// SleepCtx, Cond.Wait, Yield) only while it holds the run token — it
// was started by Clock.Go or joined with Clock.Enter — or while the
// token is free. A blocking call therefore needs no identity check. If
// the token is held, the caller is the participant running, and hands
// it on. If it is free, the caller is an *outsider* (e.g. a journal
// retry backoff on a Submit caller's goroutine, with no session
// running yet) that joins the schedule for this one block and gives the
// token back on wake. A goroutine outside the schedule that may overlap
// running participants brackets its blocking calls with
// Clock.Enter/Exit. Race-detector builds check the contract on every
// blocking call (vclock_check_race.go); other builds compile the check
// away.

// waiter states. A waiter is created per blocking call, lives in at
// most one of the timer heap / a Cond's list plus optionally one
// context group, and is granted the run token exactly once.
const (
	stBlocked = iota // parked on a timer deadline or a Cond
	stQueued         // moved to the ready queue, awaiting the token
	stGranted        // token sent; the goroutine is (about to be) running
)

type vwaiter struct {
	seq   uint64        // registration order — the deterministic tie-breaker
	at    float64       // timer deadline in model seconds (timer waiters)
	grant chan struct{} // buffered(1); a send transfers the run token
	state int

	// interrupted reports that the waiter was woken by its context
	// ending rather than by its timer/Cond. Written under the scheduler
	// lock before the grant send, read by the woken goroutine after the
	// grant receive.
	interrupted bool
	group       *ctxGroup // the context that can break this block; nil when not interruptible
}

// ctxGroup is the interruptible waiters of one context, keyed by its
// Done channel. Thousands of parked agents share a session's context, so
// a sweep asks each *context* whether it has ended, not each waiter.
type ctxGroup struct {
	done    <-chan struct{}
	waiters []*vwaiter // registration order; entries that left stBlocked are stale
	live    int        // waiters still stBlocked
}

// timerHeap orders waiters by (deadline, registration seq).
type timerHeap []*vwaiter

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*vwaiter)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// vsched is the discrete-event scheduler state shared by one virtual
// Clock and all its participants.
type vsched struct {
	mu      sync.Mutex
	now     float64
	seq     uint64
	running bool // the run token is held by some participant
	ready   []*vwaiter
	timers  timerHeap
	// groups holds, per context, the waiters whose block that context's
	// ending can break; a group leaves the map when its last waiter
	// leaves stBlocked. order lists the groups for the sweep, which runs
	// (and drops emptied groups) every time the scheduler is about to
	// advance model time, and on a real timer when the schedule is
	// otherwise idle, so even a stalled run can be torn down by a
	// real-time timeout.
	groups  map[<-chan struct{}]*ctxGroup
	order   []*ctxGroup
	idleArm bool // an idle-poll AfterFunc is pending

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

func (v *vsched) newWaiter() *vwaiter {
	v.seq++
	return &vwaiter{seq: v.seq, grant: make(chan struct{}, 1), state: stBlocked}
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
		v.order = append(v.order, g)
	}
	// Compact once stale entries outnumber live ones 2:1 (amortised O(1)
	// per registration), so a long-lived context's slice stays O(live).
	if len(g.waiters) > 3*g.live+8 {
		kept := g.waiters[:0]
		for _, o := range g.waiters {
			if o.state == stBlocked {
				kept = append(kept, o)
			}
		}
		clear(g.waiters[len(kept):])
		g.waiters = kept
	}
	g.waiters = append(g.waiters, w)
	g.live++
	w.group = g
}

// unwatchLocked records that w left stBlocked by its timer or Cond: its
// context has one waiter fewer to wake.
func (v *vsched) unwatchLocked(w *vwaiter) {
	g := w.group
	if g == nil {
		return
	}
	w.group = nil
	g.live--
	if g.live == 0 {
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
		if len(v.ready) > 0 {
			w := v.ready[0]
			v.ready = v.ready[1:]
			if len(v.ready) == 0 {
				v.ready = nil
			}
			v.grantLocked(w)
			return
		}
		// About to advance time: first honour any cancellations that
		// already happened. A canceller necessarily held the token when
		// it called cancel() (context cancellation is synchronous), so
		// every relevant ctx is already Done here — no racing window.
		if v.sweepCancelledLocked() {
			continue
		}
		for v.timers.Len() > 0 {
			w := heap.Pop(&v.timers).(*vwaiter)
			if w.state != stBlocked {
				continue // cancelled or already woken; heap entry is stale
			}
			if w.at > v.now {
				v.now = w.at
			}
			v.unwatchLocked(w)
			v.grantLocked(w)
			return
		}
		// Idle. If interruptible waiters remain, a real-time timeout may
		// still cancel them (a stalled run being torn down) — poll.
		v.armIdlePollLocked()
		return
	}
}

// grantLocked hands the free run token to w.
func (v *vsched) grantLocked(w *vwaiter) {
	w.state = stGranted
	v.running = true
	v.noteGrantLocked()
	w.grant <- struct{}{}
}

// sweepCancelledLocked moves every interruptible waiter whose context
// has ended to the ready queue, in registration order across contexts,
// and drops emptied groups. It polls each context once — O(live
// contexts), not O(parked waiters) — and walks a group's waiters only
// when its context has ended. Reports whether any waiter was moved.
func (v *vsched) sweepCancelledLocked() bool {
	var woken []*vwaiter
	live := v.order[:0]
	for _, g := range v.order {
		if g.live == 0 {
			continue // emptied and already out of the map; drop the entry
		}
		select {
		case <-g.done:
			for _, w := range g.waiters {
				if w.state != stBlocked {
					continue // already fired or broadcast
				}
				w.interrupted = true
				w.state = stQueued
				w.group = nil
				woken = append(woken, w)
			}
			delete(v.groups, g.done)
		default:
			live = append(live, g)
		}
	}
	clear(v.order[len(live):])
	v.order = live
	if len(woken) == 0 {
		return false
	}
	sort.Slice(woken, func(i, j int) bool { return woken[i].seq < woken[j].seq })
	v.ready = append(v.ready, woken...)
	return true
}

// idlePollInterval is the real-time cadence at which an otherwise idle
// virtual schedule re-checks interruptible waiters. It only matters for
// stalled runs being cancelled from outside (e.g. a real-time session
// timeout); healthy runs never go idle with waiters pending.
const idlePollInterval = 2 * time.Millisecond

func (v *vsched) armIdlePollLocked() {
	if v.idleArm {
		return
	}
	if len(v.groups) == 0 {
		return // nobody parked whom a context could still wake
	}
	v.idleArm = true
	time.AfterFunc(idlePollInterval, func() {
		v.mu.Lock()
		v.idleArm = false
		if !v.running && len(v.ready) == 0 && v.timers.Len() == 0 {
			if v.sweepCancelledLocked() {
				v.scheduleLocked()
			} else {
				v.armIdlePollLocked()
			}
		}
		v.mu.Unlock()
	})
}

// enter registers the calling goroutine as a participant and blocks
// until it is granted the run token.
func (v *vsched) enter() {
	v.mu.Lock()
	w := v.newWaiter()
	w.state = stQueued
	v.ready = append(v.ready, w)
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
	w := v.newWaiter()
	w.state = stQueued
	v.ready = append(v.ready, w)
	v.scheduleLocked() // no-op when the caller holds the token
	v.mu.Unlock()
	go func() {
		<-w.grant
		v.noteGranted()
		fn()
		v.exit()
	}()
}

// yield moves the caller to the back of the ready queue, letting every
// other runnable participant proceed first.
func (v *vsched) yield() {
	v.mu.Lock()
	v.checkBlockLocked("Clock.Yield")
	w := v.newWaiter()
	w.state = stQueued
	v.ready = append(v.ready, w)
	v.running = false
	v.scheduleLocked()
	v.mu.Unlock()
	<-w.grant
	v.noteGranted()
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
	w := v.newWaiter()
	w.at = v.now + seconds
	heap.Push(&v.timers, w)
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

// advanceTo moves model time forward by hand. Only meaningful on a
// clock with no active participants (unit tests driving Now() values
// directly); it does not fire timers.
func (v *vsched) advanceTo(t float64) {
	v.mu.Lock()
	if t > v.now {
		v.now = t
	}
	v.mu.Unlock()
}

// Cond is a scheduler-aware condition variable for virtual mode: the
// replacement for channel-based waits, which a single-token schedule
// cannot express (an unbuffered rendezvous needs two goroutines
// runnable at once). Wait releases the run token; Broadcast moves every
// current waiter to the ready queue in wait order. Obtain one from
// Clock.NewCond, or wait through Wake, which uses one on a virtual
// clock.
type Cond struct {
	v       *vsched
	waiters []*vwaiter
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
	w := v.newWaiter()
	cd.waiters = append(cd.waiters, w)
	return v.blockLocked(ctx, w)
}

// Broadcast wakes every goroutine currently parked in Wait, in the
// order they began waiting. The caller should hold the run token (a
// participant); the wakes take effect when the token is next released.
func (cd *Cond) Broadcast() {
	v := cd.v
	v.mu.Lock()
	for _, w := range cd.waiters {
		if w.state != stBlocked {
			continue // already woken by cancellation
		}
		v.unwatchLocked(w)
		w.state = stQueued
		v.ready = append(v.ready, w)
	}
	cd.waiters = cd.waiters[:0]
	v.scheduleLocked() // no-op when the broadcaster holds the token
	v.mu.Unlock()
}
