package cluster

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

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
	c.Yield()
	c.AdvanceTo(99)
	if cond := c.NewCond(); cond != nil {
		t.Fatal("NewCond on a real clock should return nil")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	c.Go(func() { wg.Done() })
	wg.Wait()
	c.Exit()
}

// TestVirtualAdvanceTo drives the participant-less use (test clocks
// that were previously ad-hoc fakes).
func TestVirtualAdvanceTo(t *testing.T) {
	c := NewVirtualClock()
	c.AdvanceTo(2.5)
	c.AdvanceTo(1.0) // backwards: ignored
	if got := c.Now(); got != 2.5 {
		t.Fatalf("Now() = %v, want 2.5", got)
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
// mid-flight context cancellations — and returns the observed wake
// sequence. Deterministic in seed.
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
			cctx, cancel := context.WithCancel(ctx)
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
// property.
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
	})
}
