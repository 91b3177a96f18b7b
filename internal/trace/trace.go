// Package trace records the observable events of a workflow enactment —
// agent lifecycle, service invocations, result transfers, adaptation
// triggers, crashes and recoveries — on the model-time axis. A session
// records into one Recorder, its record of what happened: the run
// report's crash, respawn and duplicate totals are the recorder's
// per-kind counts, and the timeline itself is retained only when asked
// (core.Config.CollectTrace), for tests and the CLI to assert on or
// display.
package trace

import (
	"fmt"
	"sort"
	"sync"
)

// Kind classifies an event.
type Kind string

// Event kinds, in rough lifecycle order.
const (
	AgentStarted     Kind = "agent-started"
	ServiceInvoked   Kind = "service-invoked"
	ServiceCompleted Kind = "service-completed"
	ServiceErrored   Kind = "service-errored" // ERROR result (adaptation fuel)
	ResultSent       Kind = "result-sent"
	AdaptTriggered   Kind = "adapt-triggered"
	AgentCrashed     Kind = "agent-crashed"
	AgentRecovered   Kind = "agent-recovered"
	TaskCompleted    Kind = "task-completed"
	// SessionRecovered marks a whole session resumed from its journal by
	// a fresh Manager process (DESIGN.md "Durability & recovery").
	SessionRecovered Kind = "session-recovered"
	// ServiceFaulted marks a transient injected invocation fault (chaos
	// harness); the agent retries with backoff.
	ServiceFaulted Kind = "service-faulted"
	// MessageDeduped marks a duplicated delivery suppressed by the inbox
	// sequence protocol (exactly-once ingestion).
	MessageDeduped Kind = "message-deduped"
	// AgentEscalated marks an agent abandoned after its transient-fault
	// retry budget ran out: the session fails with the cause chain
	// instead of stalling.
	AgentEscalated Kind = "agent-escalated"
	// EventsDropped summarises events lost on the lossy live-event
	// stream (slow consumer backpressure), recorded once per session.
	EventsDropped Kind = "events-dropped"
)

// Event is one timeline entry.
type Event struct {
	// At is the model-time instant of the event.
	At float64
	// Kind classifies the event.
	Kind Kind
	// Task is the task whose agent emitted the event.
	Task string
	// Incarnation is the agent incarnation (0 for the first launch).
	Incarnation int
	// Info carries event-specific detail (service name, destination,
	// adaptation id, ...).
	Info string
}

func (e Event) String() string {
	if e.Info != "" {
		return fmt.Sprintf("%10.2fs  %-18s %-12s #%d  %s", e.At, e.Kind, e.Task, e.Incarnation, e.Info)
	}
	return fmt.Sprintf("%10.2fs  %-18s %-12s #%d", e.At, e.Kind, e.Task, e.Incarnation)
}

// Clock supplies model time; cluster.Clock satisfies it.
type Clock interface {
	Now() float64
}

// Recorder collects events. It is safe for concurrent use; a nil
// Recorder ignores all records, so instrumentation sites need no guards.
// Every recorder counts what it records per kind (Count).
//
// Besides retaining the timeline, a recorder can fan events out live:
// sinks registered with AddSink observe every event as it is recorded —
// the mechanism behind the engine's streaming Events() API. A
// forward-only recorder (NewForwarder) invokes its sinks without
// retaining anything, so always-on streaming costs no unbounded memory.
type Recorder struct {
	clock  Clock
	retain bool

	mu     sync.Mutex
	events []Event
	// cap bounds the retained timeline (0 = unbounded, the default).
	// When full, the ring overwrites the oldest event — start is the
	// ring head — and ginflow_trace_events_dropped_total counts the
	// overwritten events.
	cap   int
	start int
	sinks []func(Event)
	// counts tallies every recorded event per kind, retained or not.
	counts map[Kind]int
}

// NewRecorder returns a recorder stamping events with the given clock
// and retaining the full timeline.
func NewRecorder(clock Clock) *Recorder {
	return &Recorder{clock: clock, retain: true, counts: map[Kind]int{}}
}

// NewForwarder returns a recorder that forwards events to its sinks
// without retaining them: Events() stays empty, Record is O(sinks).
func NewForwarder(clock Clock) *Recorder {
	return &Recorder{clock: clock, counts: map[Kind]int{}}
}

// AddSink registers a live observer invoked (synchronously) for every
// subsequently recorded event. Sinks must not block: a slow sink stalls
// the recording agent. Safe to call concurrently with Record.
func (r *Recorder) AddSink(fn func(Event)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.sinks = append(r.sinks, fn)
	r.mu.Unlock()
}

// Record appends an event at the current model time and forwards it to
// the registered sinks.
func (r *Recorder) Record(kind Kind, task string, incarnation int, info string) {
	if r == nil {
		return
	}
	at := 0.0
	if r.clock != nil {
		at = r.clock.Now()
	}
	e := Event{At: at, Kind: kind, Task: task, Incarnation: incarnation, Info: info}
	r.mu.Lock()
	r.counts[kind]++
	if r.retain {
		if r.cap > 0 && len(r.events) == r.cap {
			// Ring full: overwrite the oldest event.
			r.events[r.start] = e
			r.start = (r.start + 1) % r.cap
			obsDropped.Inc()
		} else {
			r.events = append(r.events, e)
		}
	}
	sinks := r.sinks
	r.mu.Unlock()
	for _, fn := range sinks {
		fn(e)
	}
}

// SetCap bounds the retained timeline to the newest n events, turning
// the retention buffer into a ring: once full, each new event
// overwrites the oldest and counts as dropped. n <= 0 restores
// unbounded retention (the default). Shrinking below the current
// length discards the oldest surplus immediately.
func (r *Recorder) SetCap(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Normalise the ring into record order before re-bounding it.
	if r.start > 0 {
		r.events = append(r.events[r.start:], r.events[:r.start]...)
		r.start = 0
	}
	if n <= 0 {
		r.cap = 0
		return
	}
	r.cap = n
	if surplus := len(r.events) - n; surplus > 0 {
		r.events = append([]Event(nil), r.events[surplus:]...)
		obsDropped.Add(int64(surplus))
	}
}

// Events returns a copy of the timeline, sorted by model time (record
// order breaks ties).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.start:]...)
	out = append(out, r.events[:r.start]...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Count returns how many events of a kind were recorded, whether the
// timeline retained them or not: a forwarder and a capped ring count
// every event. The session report reads its crash, respawn and dedup
// totals here.
func (r *Recorder) Count(kind Kind) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[kind]
}
