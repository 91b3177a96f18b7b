package trace

import (
	"encoding/json"
	"io"
	"sort"

	"ginflow/internal/obs"
)

// obsDropped counts ring-buffer overwrites across every capped
// recorder in the process (satellite of the Recorder.SetCap bound).
var obsDropped = obs.Default().Counter("ginflow_trace_events_dropped_total",
	"Retained trace events overwritten by the Recorder ring-buffer cap.")

// chromeEvent is one entry of the Chrome trace_event JSON format
// (the "JSON Array Format" chrome://tracing and Perfetto load).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event object form.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders an event timeline (e.g. Report.Events) as
// Chrome trace_event JSON. Each task becomes one named thread; matched
// service-invoked → service-completed/errored pairs become complete
// ("X") slices labelled with the service, and every other event
// becomes a thread-scoped instant. Timestamps are model seconds scaled
// to microseconds, so one trace-viewer second reads as one model
// second with the default ms display unit.
func WriteChromeTrace(w io.Writer, events []Event) error {
	// Stable task -> tid mapping, in first-appearance-then-name order.
	tids := map[string]int{}
	var tasks []string
	for _, e := range events {
		if _, ok := tids[e.Task]; !ok {
			tids[e.Task] = 0
			tasks = append(tasks, e.Task)
		}
	}
	sort.Strings(tasks)
	for i, t := range tasks {
		tids[t] = i + 1
	}

	const usPerModelSecond = 1e6
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for _, t := range tasks {
		name := t
		if name == "" {
			name = "(session)"
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tids[t],
			Args: map[string]any{"name": name},
		})
	}

	// Pair invocations into slices exactly like Spans, but keeping the
	// invoked event's Info (the service name) as the slice label.
	type openInv struct {
		start float64
		info  string
	}
	type key struct {
		task string
		inc  int
	}
	open := map[key]openInv{}
	for _, e := range events {
		k := key{e.Task, e.Incarnation}
		switch e.Kind {
		case ServiceInvoked:
			open[k] = openInv{start: e.At, info: e.Info}
		case ServiceCompleted, ServiceErrored:
			if inv, ok := open[k]; ok {
				name := inv.info
				if name == "" {
					name = "service"
				}
				out.TraceEvents = append(out.TraceEvents, chromeEvent{
					Name: name, Ph: "X", Pid: 1, Tid: tids[e.Task],
					Ts: inv.start * usPerModelSecond, Dur: (e.At - inv.start) * usPerModelSecond,
					Args: map[string]any{
						"incarnation": e.Incarnation,
						"error":       e.Kind == ServiceErrored,
					},
				})
				delete(open, k)
			}
		default:
			args := map[string]any{"incarnation": e.Incarnation}
			if e.Info != "" {
				args["info"] = e.Info
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: string(e.Kind), Ph: "i", S: "t", Pid: 1, Tid: tids[e.Task],
				Ts: e.At * usPerModelSecond, Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
