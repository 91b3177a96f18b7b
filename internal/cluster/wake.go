package cluster

import "context"

// Wake is a single-consumer wake-up signal: one goroutine at a time
// parks in Park until another calls Signal after changing the state the
// consumer waits on. A wake-up promises nothing; the consumer re-checks
// its state and parks again. It is the one place the two clocks differ
// on a wait for a state change (a broker subscription's queue, a space's
// fold).
//
// On a virtual clock the consumer is a schedule participant and parks on
// a scheduler Cond, so the run token moves on while it waits. Otherwise
// (a real clock, or no clock at all) it parks on a sticky one-slot
// channel: a Signal sent while nobody is parked is kept for the next
// Park, which closes the window between the consumer's check and its
// park. The Cond needs no such memory: under the single run token
// nothing can signal between a participant's check and its Wait.
type Wake struct {
	cond *Cond
	ch   chan struct{}
}

// NewWake returns a wake-up signal for a consumer on clock, which may
// be nil for consumers that never wait on model time.
func NewWake(clock *Clock) Wake {
	if clock != nil && clock.v != nil {
		return Wake{cond: &Cond{v: clock.v}}
	}
	return Wake{ch: make(chan struct{}, 1)}
}

// Signal wakes the parked consumer, or the next one to park.
func (w Wake) Signal() {
	if w.cond != nil {
		w.cond.Broadcast()
		return
	}
	select {
	case w.ch <- struct{}{}:
	default:
	}
}

// Park blocks until the next Signal or until ctx ends, which returns
// ctx.Err(). On a virtual clock it follows Sleep's calling contract.
func (w Wake) Park(ctx context.Context) error {
	if w.cond != nil {
		return w.cond.Wait(ctx)
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-w.ch:
		return nil
	}
}
