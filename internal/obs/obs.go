// Package obs is the engine's dependency-free metrics spine: a registry
// of counters, gauges and fixed-bucket histograms whose hot-path
// updates are single atomic operations — 0 allocs/op, wait-free for
// counters and histogram bucket counts — plus Prometheus text
// exposition, a JSON snapshot form, and an HTTP endpoint (see http.go)
// mounting /metrics, /metrics.json and net/http/pprof.
//
// Instruments are resolved once (Registry.Counter and friends are
// get-or-create, so two subsystems naming the same series share one
// instrument) and then held as struct fields by the instrumented code;
// the registry is never consulted on a hot path. All instrument methods
// are nil-receiver-safe, so optional instrumentation needs no guards.
//
// Metrics carry two timing axes: *_model_seconds histograms observe
// model-clock durations (deterministic under the virtual clock — two
// same-seed virtual runs produce bit-identical model-time metrics) and
// *_wall_seconds histograms observe real time.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name=value pair attached to a series at
// creation time. Labels are fixed for the life of the instrument, so
// the hot path never formats them.
type Label struct {
	// Name is the label name ([a-zA-Z_][a-zA-Z0-9_]*).
	Name string
	// Value is the label value (arbitrary UTF-8; escaped on exposition).
	Value string
}

// L builds a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing value. Inc and Add are a single
// atomic add: wait-free, 0 allocs. A nil *Counter ignores updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; negative deltas are ignored (counters are monotonic).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. Set is a single atomic
// store; Add is a compare-and-swap loop (lock-free). A nil *Gauge
// ignores updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into a fixed bucket layout chosen at
// registration. Observe is a linear bucket scan plus three atomic
// operations (bucket count, total count, CAS sum): 0 allocs, lock-free.
// A nil *Histogram ignores observations.
type Histogram struct {
	// upper holds the inclusive upper bounds of the finite buckets, in
	// strictly increasing order; an overflow (+Inf) bucket is implicit.
	upper   []float64
	counts  []atomic.Int64 // len(upper)+1, last is the overflow bucket
	total   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// ExpBuckets returns n exponential bucket bounds: start, start*factor,
// ... (start > 0, factor > 1, n >= 1).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Default bucket layouts of the engine's two timing axes and the
// broker's batch sizes.
var (
	// ModelSecondsBuckets spans the model-time range of interest: service
	// invocations run ~1 model second, whole sessions tens to hundreds.
	ModelSecondsBuckets = ExpBuckets(0.25, 2, 12) // 0.25s .. 512s
	// WallSecondsBuckets spans real time from sub-millisecond (virtual
	// runs) to minutes.
	WallSecondsBuckets = ExpBuckets(0.001, 4, 10) // 1ms .. ~262s
	// BatchSizeBuckets spans the broker's per-flush batch sizes.
	BatchSizeBuckets = ExpBuckets(1, 2, 9) // 1 .. 256
)

// metricType tags a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labelled instrument inside a family.
type series struct {
	labels []Label
	key    string // rendered label signature, for lookup and sort

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // GaugeFunc
}

// family is all series sharing one metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64 // histograms only
	series  []*series
	byKey   map[string]*series
}

// Registry holds metric families and renders them. Instrument creation
// (Counter/Gauge/Histogram/GaugeFunc) is get-or-create under a mutex —
// a cold path; the returned instruments are then updated without ever
// touching the registry again.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted family names, rebuilt lazily
	stale    bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// defaultRegistry is the process-wide registry instrumentation falls
// back to when no explicit registry is wired through.
var defaultRegistry = NewRegistry()

// Default returns the process-wide default registry. Package-level
// instrumentation (hocl, transport, trace) registers here; a Manager
// without an explicit Config.Metrics registry serves it.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter for name+labels, creating family and
// series on first use. Registering the same name with a different
// instrument type panics (a programming error, caught in tests).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.getOrCreate(name, help, typeCounter, nil, labels)
	return s.counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.getOrCreate(name, help, typeGauge, nil, labels)
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read by calling fn at
// exposition time — for quantities already tracked elsewhere (active
// sessions, model clock). Re-registering the same series replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.getOrCreate(name, help, typeGauge, nil, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram for name+labels with the given finite
// bucket upper bounds (strictly increasing; a +Inf overflow bucket is
// implicit). The bucket layout is fixed by the first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s: buckets not strictly increasing", name))
		}
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %s: empty bucket layout", name))
	}
	s := r.getOrCreate(name, help, typeHistogram, buckets, labels)
	return s.hist
}

// getOrCreate resolves one series, creating family and series as
// needed.
func (r *Registry) getOrCreate(name, help string, typ metricType, buckets []float64, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Name) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l.Name))
		}
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, buckets: append([]float64(nil), buckets...), byKey: map[string]*series{}}
		r.families[name] = f
		r.stale = true
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...), key: key}
		switch typ {
		case typeCounter:
			s.counter = &Counter{}
		case typeGauge:
			s.gauge = &Gauge{}
		case typeHistogram:
			s.hist = &Histogram{upper: f.buckets, counts: make([]atomic.Int64, len(f.buckets)+1)}
		}
		f.byKey[key] = s
		f.series = append(f.series, s)
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
	}
	return s
}

// sortedNames returns the family names in sorted order (caller holds no
// lock).
func (r *Registry) sortedNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stale {
		r.names = r.names[:0]
		for name := range r.families {
			r.names = append(r.names, name)
		}
		sort.Strings(r.names)
		r.stale = false
	}
	return append([]string(nil), r.names...)
}

// validName reports whether s is a legal Prometheus metric/label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// labelKey renders a label set into its canonical exposition form,
// e.g. `{shard="3"}` ("" for no labels). Labels keep registration
// order; instrumentation sites use a consistent order per name.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
