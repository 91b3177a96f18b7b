package cluster

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// NewCond returns a condition variable bound to a virtual clock, or nil
// on a real-mode clock: the tests' direct handle on what Wake parks on.
// Cond.Wait follows Sleep's calling contract.
func (c *Clock) NewCond() *Cond {
	if c.v == nil {
		return nil
	}
	return &Cond{v: c.v}
}

// TestVirtualSleepOrder: concurrent participants sleeping distinct
// durations wake in deadline order, and Now() tracks each deadline
// exactly.
func TestVirtualSleepOrder(t *testing.T) {
	c := NewVirtualClock()
	var mu sync.Mutex
	var order []float64
	var wg sync.WaitGroup
	c.Enter()
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			c.Sleep(d)
			mu.Lock()
			order = append(order, c.Now())
			mu.Unlock()
		})
	}
	c.Exit()
	wg.Wait()
	want := []float64{1, 2, 3, 4, 5}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("wake order = %v, want %v", order, want)
	}
	if got := c.Now(); got != 5 {
		t.Fatalf("Now() = %v, want 5", got)
	}
}

// TestVirtualTieBreak: equal deadlines fire in timer-registration
// order, which (siblings spawned in a deterministic order) is the spawn
// order.
func TestVirtualTieBreak(t *testing.T) {
	c := NewVirtualClock()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	c.Enter()
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			c.Sleep(7) // all identical deadlines
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	c.Exit()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("tie order = %v, want ascending spawn order", order)
		}
	}
}

// TestVirtualSleepCtxCancel: a context cancelled by another participant
// wakes the sleeper before model time advances past the cancellation
// instant.
func TestVirtualSleepCtxCancel(t *testing.T) {
	c := NewVirtualClock()
	ctx, cancel := context.WithCancel(context.Background())
	var wokeAt float64
	var err error
	var wg sync.WaitGroup
	c.Enter()
	wg.Add(1)
	c.Go(func() {
		defer wg.Done()
		err = c.SleepCtx(ctx, 100)
		wokeAt = c.Now()
	})
	c.Go(func() {
		c.Sleep(3)
		cancel()
	})
	c.Exit()
	wg.Wait()
	if err != context.Canceled {
		t.Fatalf("SleepCtx error = %v, want context.Canceled", err)
	}
	if wokeAt != 3 {
		t.Fatalf("woke at model time %v, want 3 (the cancellation instant)", wokeAt)
	}
}

// TestVirtualCond: Broadcast wakes waiters in wait order; a ctx-ended
// wait returns the ctx error.
func TestVirtualCond(t *testing.T) {
	c := NewVirtualClock()
	cond := c.NewCond()
	if cond == nil {
		t.Fatal("NewCond returned nil on a virtual clock")
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	c.Enter()
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			if err := cond.Wait(context.Background()); err != nil {
				t.Errorf("Wait: %v", err)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	c.Go(func() {
		c.Sleep(1)
		cond.Broadcast()
	})
	c.Exit()
	wg.Wait()
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3}) {
		t.Fatalf("broadcast wake order = %v, want [0 1 2 3]", order)
	}
}

// TestRealModeAPIsAreNoops: the participant API must be callable
// unconditionally on a real clock.
func TestRealModeAPIsAreNoops(t *testing.T) {
	c := NewClock(time.Microsecond)
	if c.Virtual() {
		t.Fatal("real clock reports Virtual()")
	}
	c.Enter()
	if cond := c.NewCond(); cond != nil {
		t.Fatal("NewCond on a real clock should return nil")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	c.Go(func() { wg.Done() })
	wg.Wait()
	c.Exit()
}

// drawCtx makes a cancellable context of a kind drawn from rng: plain
// (the scheduler polls it), clock-made (owned: the scheduler hears its
// cancel), clock-made under a plain cancellable parent that the returned
// cancel ends (polled: the parent's cancel is not the clock's), or
// clock-made under a clock-made parent that the returned cancel ends
// (owned, ended by its parent's heard cancel).
func drawCtx(c *Clock, rng *rand.Rand) (context.Context, context.CancelFunc) {
	switch rng.Intn(4) {
	case 0:
		return context.WithCancel(context.Background())
	case 1:
		return c.WithCancel(context.Background())
	case 2:
		parent, end := context.WithCancel(context.Background())
		ctx, cancel := c.WithCancel(parent)
		return ctx, func() { end(); cancel() }
	default:
		parent, end := c.WithCancel(context.Background())
		ctx, cancel := c.WithCancel(parent)
		return ctx, func() { end(); cancel() }
	}
}

// wakeRec is one observed timer firing.
type wakeRec struct {
	id        int
	at        float64 // model time observed at wake
	cancelled bool
}

// runSchedule runs one randomized schedule of sleepers —
// including equal deadlines, zero and negative durations, and
// mid-flight cancellations of every kind drawCtx makes — checks each
// wake against the plan and returns the observed wake sequence.
// Deterministic in seed.
func runSchedule(t *testing.T, seed int64, n int) []wakeRec {
	t.Helper()
	c := NewVirtualClock()
	rng := rand.New(rand.NewSource(seed))

	type sleeper struct {
		id     int
		d      float64
		cancel bool    // will be cancelled mid-flight…
		cat    float64 // …at this model time (< d)
	}
	var plan []sleeper
	for i := 0; i < n; i++ {
		s := sleeper{id: i}
		switch rng.Intn(5) {
		case 0: // duplicate deadline bucket
			s.d = float64(1 + rng.Intn(3))
		case 1: // zero / negative
			s.d = float64(-rng.Intn(2))
		default:
			s.d = rng.Float64() * 10
		}
		if s.d > 1 && rng.Intn(3) == 0 {
			s.cancel = true
			s.cat = s.d * rng.Float64() * 0.9
		}
		plan = append(plan, s)
	}

	var mu sync.Mutex
	var got []wakeRec
	var wg sync.WaitGroup
	c.Enter()
	for _, s := range plan {
		s := s
		ctx := context.Context(context.Background())
		if s.cancel {
			cctx, cancel := drawCtx(c, rng)
			ctx = cctx
			c.Go(func() {
				c.Sleep(s.cat)
				cancel()
			})
		}
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			err := c.SleepCtx(ctx, s.d)
			mu.Lock()
			got = append(got, wakeRec{id: s.id, at: c.Now(), cancelled: err != nil})
			mu.Unlock()
		})
	}
	c.Exit()
	wg.Wait()
	for _, w := range got {
		s := plan[w.id]
		want := wakeRec{id: s.id}
		switch {
		case s.cancel && s.cat < s.d:
			want.at, want.cancelled = s.cat, true
		case s.d > 0:
			want.at = s.d
		}
		if w != want {
			t.Errorf("seed %d: sleeper %d woke as %+v, want %+v", seed, s.id, w, want)
		}
	}
	if groups, _, _ := groupStats(c.v); groups != 0 {
		t.Errorf("seed %d: %d context groups outlived their contexts", seed, groups)
	}
	return got
}

// TestVirtualScheduleProperty: for many random seeds, wakes occur in
// nondecreasing model time, uncancelled sleepers wake exactly at their
// deadline, and the whole sequence is bit-identical across two runs of
// the same seed.
func TestVirtualScheduleProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		a := runSchedule(t, seed, 40)
		b := runSchedule(t, seed, 40)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two runs diverged:\n%v\n%v", seed, a, b)
		}
		last := -1.0
		for i, w := range a {
			if w.at < last {
				t.Fatalf("seed %d: wake %d at %v before previous %v", seed, i, w.at, last)
			}
			last = w.at
		}
	}
}

// FuzzVirtualSchedule feeds arbitrary seeds/sizes through the same
// property and through the shared-context one.
func FuzzVirtualSchedule(f *testing.F) {
	f.Add(int64(42), uint8(20))
	f.Add(int64(7), uint8(3))
	f.Add(int64(-1), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		size := int(n%64) + 1
		a := runSchedule(t, seed, size)
		b := runSchedule(t, seed, size)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d size %d: runs diverged", seed, size)
		}
		last := -1.0
		for _, w := range a {
			if w.at < last {
				t.Fatalf("seed %d: nonmonotone wake at %v after %v", seed, w.at, last)
			}
			last = w.at
		}
		checkSharedSchedule(t, seed, size)
	})
}

// sharedWake is one wake observed by runSharedSchedule.
type sharedWake struct {
	id        int
	reg       int     // order of the blocking call among all blocking calls of the run
	at        float64 // model time observed at wake
	cancelled bool
}

// runSharedSchedule runs one randomized schedule in which n participants
// share k ≪ n contexts of the kinds drawCtx makes: a mix of SleepCtx
// sleepers and Cond waiters (one to three Wait rounds each, woken by
// three broadcasts), with cancellers that end one to three contexts at a
// drawn model instant. It returns the observed wakes in order and, per
// participant, the wakes the plan predicts. Deterministic in seed.
func runSharedSchedule(t *testing.T, seed int64, n int) (got []sharedWake, want map[int][]sharedWake) {
	t.Helper()
	c := NewVirtualClock()
	cond := c.NewCond()
	rng := rand.New(rand.NewSource(seed))

	k := 1 + n/8
	ctxs := make([]context.Context, k)
	cancels := make([]context.CancelFunc, k)
	cancelAt := make([]float64, k)
	for j := range ctxs {
		ctxs[j], cancels[j] = drawCtx(c, rng)
	}
	// Cancellers: each ends the next one to three contexts at one instant,
	// so a single sweep has to merge the waiters of several groups.
	var cancellers [][]int
	for j := 0; j < k; {
		m := 1 + rng.Intn(3)
		at := rng.Float64() * 12
		var set []int
		for ; m > 0 && j < k; m, j = m-1, j+1 {
			set = append(set, j)
			cancelAt[j] = at
		}
		cancellers = append(cancellers, set)
	}
	bcast := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
	sort.Float64s(bcast)

	type part struct {
		id    int
		ctx   int
		waits int     // Cond.Wait rounds; 0 for a sleeper
		d     float64 // sleep duration
	}
	plan := make([]part, n)
	want = map[int][]sharedWake{}
	for i := range plan {
		p := part{id: i, ctx: rng.Intn(k)}
		cat := cancelAt[p.ctx]
		if rng.Intn(2) == 0 {
			p.waits = 1 + rng.Intn(3)
			for _, b := range bcast[:p.waits] {
				if cat < b {
					want[i] = append(want[i], sharedWake{id: i, at: cat, cancelled: true})
					break
				}
				want[i] = append(want[i], sharedWake{id: i, at: b})
			}
		} else {
			p.d = 0.01 + rng.Float64()*10
			if cat < p.d {
				want[i] = append(want[i], sharedWake{id: i, at: cat, cancelled: true})
			} else {
				want[i] = append(want[i], sharedWake{id: i, at: p.d})
			}
		}
		plan[i] = p
	}

	// reg and got are only touched by the participant holding the run token.
	reg := 0
	record := func(p part, r int, err error) {
		if err != nil && err != ctxs[p.ctx].Err() {
			t.Errorf("seed %d: participant %d woke with %v, want its ctx.Err() %v", seed, p.id, err, ctxs[p.ctx].Err())
		}
		got = append(got, sharedWake{id: p.id, reg: r, at: c.Now(), cancelled: err != nil})
	}
	var wg sync.WaitGroup
	c.Enter()
	for _, p := range plan {
		p := p
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			if p.waits == 0 {
				reg++
				r := reg
				record(p, r, c.SleepCtx(ctxs[p.ctx], p.d))
				return
			}
			for i := 0; i < p.waits; i++ {
				reg++
				r := reg
				err := cond.Wait(ctxs[p.ctx])
				record(p, r, err)
				if err != nil {
					return
				}
			}
		})
	}
	for _, b := range bcast {
		b := b
		c.Go(func() {
			c.Sleep(b)
			cond.Broadcast()
		})
	}
	for _, set := range cancellers {
		set := set
		wg.Add(1) // a context's group may outlive its waiters until the cancel
		c.Go(func() {
			defer wg.Done()
			c.Sleep(cancelAt[set[0]])
			for _, j := range set {
				cancels[j]()
			}
		})
	}
	c.Exit()
	wg.Wait()
	if groups, _, _ := groupStats(c.v); groups != 0 {
		t.Errorf("seed %d: %d context groups outlived their waiters", seed, groups)
	}
	return got, want
}

// checkSharedSchedule asserts the shared-context property for one seed:
// every waiter of a cancelled context wakes at the canceller's model
// instant with ctx.Err(), everyone else at their deadline or broadcast;
// the waiters one canceller wakes run in registration order whichever of
// its contexts they wait on; and two runs of the seed are identical.
func checkSharedSchedule(t *testing.T, seed int64, n int) {
	t.Helper()
	got, want := runSharedSchedule(t, seed, n)
	again, _ := runSharedSchedule(t, seed, n)
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("seed %d size %d: two runs diverged:\n%v\n%v", seed, n, got, again)
	}
	perID := map[int][]sharedWake{}
	for i, w := range got {
		if i > 0 {
			prev := got[i-1]
			if w.at < prev.at {
				t.Fatalf("seed %d: wake %d at %v before previous %v", seed, i, w.at, prev.at)
			}
			if w.cancelled && prev.cancelled && w.at == prev.at && w.reg < prev.reg {
				t.Fatalf("seed %d: at %v cancelled waiter registered %d ran after %d", seed, w.at, w.reg, prev.reg)
			}
		}
		w.reg = 0
		perID[w.id] = append(perID[w.id], w)
	}
	if !reflect.DeepEqual(perID, want) {
		t.Fatalf("seed %d size %d: wakes differ from the plan:\n got %v\nwant %v", seed, n, perID, want)
	}
}

// TestVirtualSharedContextSchedule: the path real runs take — thousands
// of parked agents under one session context — in miniature.
func TestVirtualSharedContextSchedule(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		checkSharedSchedule(t, seed, 64)
	}
}

// TestVirtualStaleReferencesAfterReArm: a participant's waiter is
// re-armed for each block, so the timer entry and Cond entry an
// interrupted block leaves behind must not wake a later block. The
// sleeper is interrupted at 1, long before its deadline at 10, and then
// waits on a Cond broadcast at 20; the Cond waiter is interrupted at 1,
// then sleeps until 16 across a broadcast of its old Cond at 5.
func TestVirtualStaleReferencesAfterReArm(t *testing.T) {
	c := NewVirtualClock()
	first, later := c.NewCond(), c.NewCond()
	ctx, cancel := c.WithCancel(context.Background())
	var sleeperAt, waiterAt float64
	var wg sync.WaitGroup
	c.Enter()
	wg.Add(2)
	c.Go(func() {
		defer wg.Done()
		if err := c.SleepCtx(ctx, 10); err != context.Canceled {
			t.Errorf("sleeper: %v, want context.Canceled", err)
		}
		if err := later.Wait(context.Background()); err != nil {
			t.Errorf("sleeper's later wait: %v", err)
		}
		sleeperAt = c.Now()
	})
	c.Go(func() {
		defer wg.Done()
		if err := first.Wait(ctx); err != context.Canceled {
			t.Errorf("waiter: %v, want context.Canceled", err)
		}
		c.Sleep(15)
		waiterAt = c.Now()
	})
	c.Go(func() {
		c.Sleep(1)
		cancel()
		c.Sleep(4)
		first.Broadcast()
		c.Sleep(15)
		later.Broadcast()
	})
	c.Exit()
	wg.Wait()
	if sleeperAt != 20 || waiterAt != 16 {
		t.Errorf("woke at %v and %v, want 20 (the later broadcast) and 16 (the later deadline)", sleeperAt, waiterAt)
	}
}

// groupStats reads the scheduler's cancellation bookkeeping: the groups
// in the map, the groups on the sweep lists, and the longest waiter
// slice.
func groupStats(v *vsched) (groups, listed, longest int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, g := range v.groups {
		if cap(g.waiters) > longest {
			longest = cap(g.waiters)
		}
	}
	return len(v.groups), len(v.polled) + len(v.owned), longest
}

// TestVirtualGroupBookkeepingBounded: neither 10⁵ sleep/wake cycles
// under one live context nor 10³ short-lived contexts may grow the group
// map, the sweep lists or a group's waiter slice. A plain context's group
// leaves with its last waiter; a clock-made one's lives until its cancel
// and is gone right after it.
func TestVirtualGroupBookkeepingBounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		owned bool
	}{{"plain", false}, {"clock-made", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewVirtualClock()
			withCancel := context.WithCancel
			if tc.owned {
				withCancel = c.WithCancel
			}
			cond := c.NewCond()
			ctx, cancel := withCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			c.Enter()
			wg.Add(2)
			c.Go(func() { // keeps ctx's group alive throughout
				defer wg.Done()
				if err := cond.Wait(ctx); err != context.Canceled {
					t.Errorf("parked waiter woke with %v, want context.Canceled", err)
				}
			})
			c.Go(func() {
				defer wg.Done()
				for i := 0; i < 100_000; i++ {
					if err := c.SleepCtx(ctx, 1); err != nil {
						t.Errorf("cycle %d: %v", i, err)
						return
					}
				}
				if groups, listed, longest := groupStats(c.v); groups != 1 || listed != 1 || longest > 64 {
					t.Errorf("after 1e5 cycles: %d groups, %d listed, longest waiter slice %d; want 1, 1, <= 64", groups, listed, longest)
				}
				// Short-lived contexts whose only waiter leaves by its
				// timer (even i) or by a Broadcast (odd i).
				short := c.NewCond()
				for i := 0; i < 1000; i++ {
					sctx, stop := withCancel(ctx)
					if i%2 == 0 {
						if err := c.SleepCtx(sctx, 1); err != nil {
							t.Errorf("short context %d: %v", i, err)
						}
					} else {
						c.Go(func() {
							if err := short.Wait(sctx); err != nil {
								t.Errorf("short context %d: %v", i, err)
							}
						})
						c.Sleep(1) // the waiter parks
						short.Broadcast()
						c.Sleep(1) // the waiter runs and leaves
					}
					before, _, _ := groupStats(c.v)
					stop()
					after, _, _ := groupStats(c.v)
					want := 1 // a plain group is gone before the context even ends
					if tc.owned {
						want = 2
					}
					if before != want || after != 1 {
						t.Errorf("short context %d: %d groups before its cancel and %d after, want %d and 1", i, before, after, want)
						break
					}
				}
				if groups, listed, longest := groupStats(c.v); groups != 1 || listed > 2 || longest > 64 {
					t.Errorf("after 1e3 contexts: %d groups, %d listed, longest waiter slice %d; want 1, <= 2, <= 64", groups, listed, longest)
				}
				cancel()
			})
			c.Exit()
			wg.Wait()
			if groups, listed, _ := groupStats(c.v); groups != 0 || listed != 0 {
				t.Errorf("after the last context ended: %d groups, %d listed; want none", groups, listed)
			}
		})
	}
}

// TestVirtualIdlePollTearDown: a stalled schedule — every participant
// parked, no timer pending — is torn down by a context that a real timer
// ends from outside the schedule. A plain timeout is found by the idle
// poll. A clock-made one is heard: its cancel wakes the idle schedule
// itself, and no idle poll is armed.
func TestVirtualIdlePollTearDown(t *testing.T) {
	errStall := errors.New("stalled")
	for _, tc := range []struct {
		name    string
		owned   bool
		timeout func(*Clock) (context.Context, context.CancelFunc)
		err     error // what the waiters' Wait returns
		cause   error
	}{
		{"plain", false, func(*Clock) (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 20*time.Millisecond)
		}, context.DeadlineExceeded, context.DeadlineExceeded},
		{"clock-made", true, func(c *Clock) (context.Context, context.CancelFunc) {
			return c.WithTimeoutCause(context.Background(), 20*time.Millisecond, errStall)
		}, context.Canceled, errStall},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewVirtualClock()
			cond := c.NewCond()
			ctx, cancel := tc.timeout(c)
			defer cancel()
			errs := make([]error, 8)
			var wg sync.WaitGroup
			c.Enter()
			for i := range errs {
				i := i
				wg.Add(1)
				c.Go(func() {
					defer wg.Done()
					errs[i] = cond.Wait(ctx) // nobody broadcasts
				})
			}
			c.Exit()
			for {
				c.v.mu.Lock()
				parked, idleArm := len(cond.waiters) == len(errs) && !c.v.running, c.v.idleArm
				c.v.mu.Unlock()
				if parked {
					if tc.owned && idleArm {
						t.Error("an idle poll is armed while every waiter is parked on a clock-made context")
					}
					break
				}
				runtime.Gosched()
			}
			wg.Wait()
			for i, err := range errs {
				if err != tc.err {
					t.Errorf("waiter %d woke with %v, want %v", i, err, tc.err)
				}
			}
			if cause := context.Cause(ctx); cause != tc.cause {
				t.Errorf("context.Cause = %v, want %v", cause, tc.cause)
			}
			if now := c.Now(); now != 0 {
				t.Errorf("model time moved to %v while stalled", now)
			}
		})
	}
}

// tokenFree reports whether no goroutine holds c's run token.
func tokenFree(c *Clock) bool {
	c.v.mu.Lock()
	defer c.v.mu.Unlock()
	return !c.v.running
}

// TestVirtualOutsiderWhileTokenFree: a goroutine that never joined the
// schedule may Sleep or Cond.Wait while the run token is free — no
// participant runnable, none parked on a timer. It joins for that one
// block, wakes at the instant the schedule gives it, and leaves the
// token free when it returns.
func TestVirtualOutsiderWhileTokenFree(t *testing.T) {
	c := NewVirtualClock()
	cond := c.NewCond()

	c.Sleep(2)
	if now := c.Now(); now != 2 {
		t.Fatalf("outsider Sleep(2) woke at %v, want 2", now)
	}
	if !tokenFree(c) {
		t.Fatal("outsider Sleep kept the run token")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.SleepCtx(ctx, 1); err != context.Canceled {
		t.Fatalf("outsider SleepCtx on an ended context = %v, want context.Canceled", err)
	}

	// An outsider parks on the Cond; a participant that joins after it
	// advances time and broadcasts, and the outsider wakes at that
	// instant once the participant leaves.
	woke := make(chan float64)
	go func() {
		if err := cond.Wait(context.Background()); err != nil {
			t.Errorf("outsider Cond.Wait: %v", err)
		}
		woke <- c.Now()
	}()
	for {
		c.v.mu.Lock()
		parked := len(cond.waiters) == 1
		c.v.mu.Unlock()
		if parked {
			break
		}
		runtime.Gosched()
	}
	c.Enter()
	c.Sleep(1)
	cond.Broadcast()
	c.Exit()
	if at := <-woke; at != 3 {
		t.Fatalf("outsider Cond.Wait returned at %v, want 3 (the broadcast instant)", at)
	}
	if !tokenFree(c) {
		t.Fatal("outsider Cond.Wait kept the run token")
	}
	c.Enter() // a free token is granted at once
	c.Exit()
}

// BenchmarkVirtualBlock is a participant's blocking cycle: one
// participant alternates SleepCtx and Cond.Wait, and another wakes it
// with Broadcast and sleeps, all under one clock-made context on which
// 64 more participants stay parked. An op is one cycle: three blocks
// and three grants. A participant re-arms its own waiter, and the
// context's group lives until its cancel, so the cycle allocates
// nothing.
func BenchmarkVirtualBlock(b *testing.B) {
	c := NewVirtualClock()
	ctx, cancel := c.WithCancel(context.Background())
	parked, cond := c.NewCond(), c.NewCond()
	var wg sync.WaitGroup
	c.Enter()
	for i := 0; i < 64; i++ {
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			if err := parked.Wait(ctx); err != context.Canceled {
				b.Errorf("parked participant woke with %v, want context.Canceled", err)
			}
		})
	}
	wg.Add(1)
	c.Go(func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			if c.SleepCtx(ctx, 0.5) != nil || cond.Wait(ctx) != nil {
				b.Error("the cycling participant was interrupted")
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SleepCtx(ctx, 1); err != nil {
			b.Fatal(err)
		}
		cond.Broadcast()
	}
	b.StopTimer()
	cancel()
	c.Exit()
	wg.Wait()
}
