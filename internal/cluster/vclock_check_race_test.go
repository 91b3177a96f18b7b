//go:build race

package cluster

import (
	"context"
	"strings"
	"testing"
)

// TestVirtualOutsiderOverlapPanics: under the race detector, a blocking
// call from a goroutine outside the schedule while a participant holds
// the run token panics with a message naming Clock.Enter/Exit — and
// leaves the schedule as it was, so the participant carries on.
func TestVirtualOutsiderOverlapPanics(t *testing.T) {
	c := NewVirtualClock()
	cond := c.NewCond()
	for _, tc := range []struct {
		op    string
		block func()
	}{
		{"Clock.Sleep", func() { c.Sleep(1) }},
		{"Clock.SleepCtx", func() { c.SleepCtx(context.Background(), 1) }},
		{"Cond.Wait", func() { cond.Wait(context.Background()) }},
	} {
		c.Enter()
		got := make(chan any)
		go func() {
			defer func() { got <- recover() }()
			tc.block() // overlaps the test goroutine, which holds the token
		}()
		r := <-got
		c.Sleep(1) // the participant still schedules normally
		c.Exit()
		msg, _ := r.(string)
		if !strings.Contains(msg, "Clock.Enter/Exit") {
			t.Errorf("%s from an outsider overlapping a participant: recovered %v, want a panic naming Clock.Enter/Exit", tc.op, r)
		}
	}
	if now := c.Now(); now != 3 {
		t.Errorf("Now() = %v, want 3: a rejected call must register nothing", now)
	}
}

// TestVirtualExitedParticipantOverlapPanics: a participant that left
// with Exit is an outsider again; blocking while the participant it
// handed the token to is still running panics, even before that
// participant has run a single instruction of its own.
func TestVirtualExitedParticipantOverlapPanics(t *testing.T) {
	c := NewVirtualClock()
	release := make(chan struct{})
	done := make(chan struct{})
	c.Enter()
	c.Go(func() {
		<-release // holds the token until the outsider's call is checked
		close(done)
	})
	c.Exit() // grants the spawned participant
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "Clock.Enter/Exit") {
				t.Errorf("Sleep after Exit overlapping a participant: recovered %q, want a panic naming Clock.Enter/Exit", msg)
			}
		}()
		c.Sleep(1)
	}()
	close(release)
	<-done
}

// TestVirtualOwnedEndCheckPanics: under the race detector, a sweep that
// skips the owned groups (no owned cancel since the last one) panics when
// one of them has ended anyway — here one whose Done is swapped for a
// closed channel, as an end the scheduler did not hear would look.
func TestVirtualOwnedEndCheckPanics(t *testing.T) {
	c := NewVirtualClock()
	ctx, cancel := c.WithCancel(context.Background())
	defer cancel()
	closed := make(chan struct{})
	close(closed)
	c.v.mu.Lock()
	c.v.groups[ctx.Done()].done = closed
	msg := func() (msg string) {
		defer func() { msg, _ = recover().(string) }()
		c.v.sweepCancelledLocked()
		c.v.mu.Unlock()
		return ""
	}()
	if !strings.Contains(msg, "without its cancel func") {
		t.Errorf("sweep over an owned context that ended unheard: recovered %q, want the owned-context panic", msg)
	}
}
