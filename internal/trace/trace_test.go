package trace

import (
	"strings"
	"testing"
)

// manualClock is a Clock whose model time the tests set by hand.
type manualClock struct{ now float64 }

func (c *manualClock) Now() float64 { return c.now }

func (c *manualClock) set(t float64) { c.now = t }

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(AgentStarted, "T1", 0, "") // must not panic
	if r.Events() != nil {
		t.Error("nil recorder has events")
	}
}

func TestRecordAndQuery(t *testing.T) {
	clock := new(manualClock)
	r := NewRecorder(clock)

	clock.set(1)
	r.Record(AgentStarted, "T1", 0, "")
	clock.set(2)
	r.Record(ServiceInvoked, "T1", 0, "s1")
	clock.set(5)
	r.Record(ServiceCompleted, "T1", 0, "s1")
	clock.set(6)
	r.Record(ResultSent, "T1", 0, "T2")
	clock.set(7)
	r.Record(TaskCompleted, "T2", 0, "")

	events := r.Events()
	if len(events) != 5 {
		t.Fatalf("len = %d", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("events out of order: %v", events)
		}
	}
	if e := events[1]; e.Kind != ServiceInvoked || e.Info != "s1" || e.At != 2 {
		t.Errorf("events[1] = %v", e)
	}
	if e := events[1].String(); !strings.Contains(e, "2.00s") || !strings.Contains(e, "s1") {
		t.Errorf("String() = %q", e)
	}
	if r.Count(TaskCompleted) != 1 || r.Count(AgentCrashed) != 0 {
		t.Errorf("Count = %d/%d", r.Count(TaskCompleted), r.Count(AgentCrashed))
	}
}

// TestCountOutlivesRetention: Count tallies every recorded event, also
// those a capped ring overwrote and those a forwarder never retained.
func TestCountOutlivesRetention(t *testing.T) {
	capped := NewRecorder(new(manualClock))
	capped.SetCap(2)
	fwd := NewForwarder(new(manualClock))
	for _, r := range []*Recorder{capped, fwd} {
		for i := 0; i < 5; i++ {
			r.Record(AgentCrashed, "T", i, "")
		}
		r.Record(MessageDeduped, "T", 0, "")
	}
	for name, r := range map[string]*Recorder{"capped": capped, "forwarder": fwd} {
		if r.Count(AgentCrashed) != 5 || r.Count(MessageDeduped) != 1 {
			t.Errorf("%s: counts = %d/%d, want 5/1", name, r.Count(AgentCrashed), r.Count(MessageDeduped))
		}
	}
	if n := len(capped.Events()); n != 2 {
		t.Errorf("capped ring retained %d events, want 2", n)
	}
	var nilRec *Recorder
	if nilRec.Count(AgentCrashed) != 0 {
		t.Error("nil recorder counts events")
	}
}

// TestSinkFanOut: sinks observe every recorded event live; a
// forward-only recorder streams without retaining.
func TestSinkFanOut(t *testing.T) {
	r := NewRecorder(new(manualClock))
	var got1, got2 []Event
	r.AddSink(func(e Event) { got1 = append(got1, e) })
	r.AddSink(func(e Event) { got2 = append(got2, e) })
	r.Record(AgentStarted, "T1", 0, "")
	r.Record(TaskCompleted, "T1", 0, "")
	if len(got1) != 2 || len(got2) != 2 {
		t.Errorf("sinks saw %d/%d events, want 2/2", len(got1), len(got2))
	}
	if got1[1].Kind != TaskCompleted {
		t.Errorf("sink order: %v", got1)
	}
	if n := len(r.Events()); n != 2 {
		t.Errorf("retained = %d", n)
	}

	f := NewForwarder(new(manualClock))
	var streamed int
	f.AddSink(func(Event) { streamed++ })
	f.Record(AgentStarted, "T1", 0, "")
	if streamed != 1 {
		t.Errorf("forwarder streamed %d, want 1", streamed)
	}
	if n := len(f.Events()); n != 0 {
		t.Errorf("forwarder retained events: %d", n)
	}
	// Nil recorder and nil sink stay safe.
	var nilRec *Recorder
	nilRec.AddSink(func(Event) {})
	f.AddSink(nil)
	f.Record(AgentStarted, "T1", 0, "")
}

func TestRecorderConcurrency(t *testing.T) {
	r := NewRecorder(new(manualClock))
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				r.Record(ResultSent, "T", 0, "x")
				_ = r.Events()
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if n := len(r.Events()); n != 8*200 || r.Count(ResultSent) != 8*200 {
		t.Errorf("len = %d, count = %d", n, r.Count(ResultSent))
	}
}
