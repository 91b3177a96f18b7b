package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSetCapRing exercises the ring-buffer retention bound: overwrite
// order, the dropped counter, shrink-below-length, and restoring
// unbounded retention.
func TestSetCapRing(t *testing.T) {
	clock := new(manualClock)
	r := NewRecorder(clock)
	r.SetCap(3)
	dropped0 := obsDropped.Value()
	for i := 1; i <= 5; i++ {
		clock.set(float64(i))
		r.Record(ResultSent, "T", i, "")
	}
	if n := len(r.Events()); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	if got := obsDropped.Value() - dropped0; got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	events := r.Events()
	for i, want := range []float64{3, 4, 5} {
		if events[i].At != want {
			t.Errorf("event[%d].At = %v, want %v (newest 3 must survive)", i, events[i].At, want)
		}
	}

	// Shrinking below the current length discards the oldest surplus.
	r.SetCap(1)
	if events := r.Events(); len(events) != 1 || events[0].At != 5 {
		t.Errorf("after shrink: events=%v, want only the newest", events)
	}
	if got := obsDropped.Value() - dropped0; got != 4 {
		t.Errorf("dropped = %d, want 4", got)
	}

	// Restoring unbounded retention grows again.
	r.SetCap(0)
	clock.set(6)
	r.Record(ResultSent, "T", 6, "")
	clock.set(7)
	r.Record(ResultSent, "T", 7, "")
	if n := len(r.Events()); n != 3 {
		t.Errorf("after uncapping: len = %d, want 3", n)
	}

	// Nil recorder stays safe.
	var nilRec *Recorder
	nilRec.SetCap(2)
}

// TestSetCapMidRing re-bounds a recorder whose ring has already
// wrapped (start > 0), the aliasing-sensitive path of SetCap.
func TestSetCapMidRing(t *testing.T) {
	clock := new(manualClock)
	r := NewRecorder(clock)
	r.SetCap(4)
	for i := 1; i <= 6; i++ { // wraps twice: ring holds 3,4,5,6 with start=2
		clock.set(float64(i))
		r.Record(ResultSent, "T", i, "")
	}
	r.SetCap(2)
	events := r.Events()
	if len(events) != 2 || events[0].At != 5 || events[1].At != 6 {
		t.Errorf("mid-ring re-bound kept %v, want [5 6]", events)
	}
	clock.set(7)
	r.Record(ResultSent, "T", 7, "")
	events = r.Events()
	if len(events) != 2 || events[0].At != 6 || events[1].At != 7 {
		t.Errorf("post-re-bound ring = %v, want [6 7]", events)
	}
}

// TestWriteChromeTrace locks the trace_event mapping: a metadata row
// per task, matched invocations as complete "X" slices with model
// seconds scaled to microseconds, everything else as instants.
func TestWriteChromeTrace(t *testing.T) {
	clock := new(manualClock)
	r := NewRecorder(clock)
	clock.set(1)
	r.Record(AgentStarted, "T1", 0, "")
	clock.set(2)
	r.Record(ServiceInvoked, "T1", 0, "work")
	clock.set(4.5)
	r.Record(ServiceCompleted, "T1", 0, "work")
	clock.set(5)
	r.Record(ServiceInvoked, "T2", 1, "flaky")
	clock.set(6)
	r.Record(ServiceErrored, "T2", 1, "flaky")
	clock.set(7)
	r.Record(AgentCrashed, "T2", 1, "boom")

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r.Events()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}

	byPh := map[string]int{}
	var slices, metas int
	for _, e := range out.TraceEvents {
		byPh[e.Ph]++
		switch e.Ph {
		case "M":
			metas++
			if e.Name != "thread_name" {
				t.Errorf("metadata name = %q", e.Name)
			}
		case "X":
			slices++
			switch e.Name {
			case "work":
				if e.Ts != 2e6 || e.Dur != 2.5e6 {
					t.Errorf("work slice ts=%v dur=%v, want 2e6/2.5e6", e.Ts, e.Dur)
				}
				if e.Args["error"] != false {
					t.Errorf("work slice error = %v", e.Args["error"])
				}
			case "flaky":
				if e.Args["error"] != true {
					t.Errorf("errored slice not flagged: %v", e.Args)
				}
			default:
				t.Errorf("unexpected slice %q", e.Name)
			}
		}
	}
	if metas != 2 {
		t.Errorf("thread metadata rows = %d, want 2 (one per task)", metas)
	}
	if slices != 2 {
		t.Errorf("X slices = %d, want 2", slices)
	}
	// agent-started and agent-crashed become instants; the four
	// invocation events were consumed by the slices.
	if byPh["i"] != 2 {
		t.Errorf("instants = %d, want 2", byPh["i"])
	}
}

// TestWriteChromeTraceEmpty: an empty timeline still renders a valid,
// loadable document (traceEvents present, not null).
func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if string(raw["traceEvents"]) != "[]" {
		t.Errorf("traceEvents = %s, want []", raw["traceEvents"])
	}
}
