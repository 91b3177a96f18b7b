package main

// The traced pass (-trace 1): the per-layer table, measured from outside
// the program. Three sources: counters read from the Manager's private
// metrics registry and the process-wide one after a fixed number of
// cycles; the enactment events streamed by Handle.Events(), stamped with
// this process's wall clock on receipt; and the layer probes of
// layers.go. The fixed cycles run twice on fresh same-seed Managers,
// first untraced (counts, runtime figures) and then traced (events,
// spans, CPU profile): the ratio of the two is the tracing overhead and
// the sessions whose model time differs between them are counted.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"ginflow"
)

// metricFamily is the JSON form of one family of a registry snapshot
// (what /metrics.json serves).
type metricFamily struct {
	Name   string `json:"name"`
	Series []struct {
		Value float64 `json:"value"`
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"series"`
}

// counters maps a family name to its value summed over series;
// histograms appear as name_count and name_sum.
type counters map[string]float64

func countersOf(fams []metricFamily) counters {
	c := counters{}
	for _, f := range fams {
		for _, s := range f.Series {
			c[f.Name] += s.Value
			c[f.Name+"_count"] += float64(s.Count)
			c[f.Name+"_sum"] += s.Sum
		}
	}
	return c
}

// read takes a registry's counters through its JSON snapshot.
func read(reg *ginflow.MetricsRegistry) counters {
	var fams []metricFamily
	if data, err := json.Marshal(reg.Snapshot()); err == nil {
		_ = json.Unmarshal(data, &fams)
	}
	return countersOf(fams)
}

// plus returns a + sign*b.
func (a counters) plus(b counters, sign float64) counters {
	out := counters{}
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += sign * v
	}
	return out
}

// span is one traced interval: {id, parent, name, start, end}.
type span struct {
	id, parent int
	name       string
	start, end time.Time
	lane       int  // Chrome trace thread: 0 = run, 1+n = session n
	async      bool // overlaps its siblings (per-task spans)
}

// tracer keeps spans in memory until the run ends. Only the goroutine
// driving the run touches it: the event consumers hand their stamps over
// when their session's Wait has returned.
type tracer struct {
	spans []span
	lanes int
}

func (t *tracer) add(s span) int {
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.id
}

// begin opens a span on the run lane and returns the function closing it.
func (t *tracer) begin(parent int, name string) (id int, end func()) {
	id = t.add(span{parent: parent, name: name, start: time.Now()})
	return id, func() { t.spans[id-1].end = time.Now() }
}

func (t *tracer) newLane() int {
	t.lanes++
	return t.lanes
}

// writeChrome writes the spans as Chrome trace_event JSON (loads in
// Perfetto): complete events for the run and session lanes, nestable
// async events for the per-task spans, which overlap.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Cat  string         `json:"cat,omitempty"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		ID   int            `json:"id,omitempty"`
		Args map[string]int `json:"args,omitempty"`
	}
	if len(t.spans) == 0 {
		return nil
	}
	origin := t.spans[0].start
	us := func(at time.Time) float64 { return float64(at.Sub(origin).Nanoseconds()) / 1e3 }
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]int{"id": s.id, "parent": s.parent}
		if s.async {
			events = append(events,
				event{Name: s.name, Ph: "b", Cat: "task", Ts: us(s.start), Pid: 1, Tid: s.lane, ID: s.id, Args: args},
				event{Name: s.name, Ph: "e", Cat: "task", Ts: us(s.end), Pid: 1, Tid: s.lane, ID: s.id})
			continue
		}
		dur := us(s.end) - us(s.start)
		events = append(events, event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: &dur, Pid: 1, Tid: s.lane, Args: args})
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// taskStamps are the wall-clock receipt times of one task's events.
type taskStamps struct {
	started, invoked, firstSent, lastSent time.Time
}

// watched is what the event consumer of one traced session observed.
type watched struct {
	done        chan struct{}
	tasks       map[string]*taskStamps
	firstInvoke time.Time
	lastDone    time.Time
}

// traced accumulates the event-derived timings of the traced pass.
type traced struct {
	t      *tracer
	parent int

	startToInvoke  []float64 // per task: agent started -> service invoked
	invokeToSent   []float64 // per task: service invoked -> first result sent
	submitToInvoke []float64 // per session: Submit call -> first invocation
	completeToWait []float64 // per session: last task completed -> Wait returned
}

// watch consumes the session's live events until the stream closes and
// returns the function runCycle calls when Wait has returned.
func (tr *traced) watch(h *ginflow.Handle, submitted time.Time) func(waited time.Time) {
	events := h.Events()
	wd := &watched{done: make(chan struct{}), tasks: map[string]*taskStamps{}}
	go func() {
		defer close(wd.done)
		for e := range events {
			now := time.Now()
			ts := wd.tasks[e.Task]
			if ts == nil {
				ts = &taskStamps{}
				wd.tasks[e.Task] = ts
			}
			switch e.Kind {
			case ginflow.EventAgentStarted:
				if ts.started.IsZero() {
					ts.started = now
				}
			case ginflow.EventServiceInvoked:
				if ts.invoked.IsZero() {
					ts.invoked = now
				}
				if wd.firstInvoke.IsZero() {
					wd.firstInvoke = now
				}
			case ginflow.EventResultSent:
				if ts.firstSent.IsZero() {
					ts.firstSent = now
				}
				ts.lastSent = now
			case ginflow.EventTaskCompleted:
				wd.lastDone = now
			}
		}
	}()
	lane := tr.t.newLane()
	return func(waited time.Time) {
		<-wd.done
		tr.record(wd, lane, submitted, waited)
	}
}

// record turns one session's stamps into spans and timing samples.
func (tr *traced) record(wd *watched, lane int, submitted, waited time.Time) {
	t := tr.t
	sid := t.add(span{parent: tr.parent, name: "session", start: submitted, end: waited, lane: lane})
	phase := func(name string, from, to time.Time) {
		if !from.IsZero() && !to.IsZero() && !to.Before(from) {
			t.add(span{parent: sid, name: name, start: from, end: to, lane: lane})
		}
	}
	phase("submit -> first-invoke", submitted, wd.firstInvoke)
	phase("first-invoke -> last-complete", wd.firstInvoke, wd.lastDone)
	phase("last-complete -> wait", wd.lastDone, waited)

	if !wd.firstInvoke.IsZero() {
		tr.submitToInvoke = append(tr.submitToInvoke, wd.firstInvoke.Sub(submitted).Seconds())
	}
	if !wd.lastDone.IsZero() {
		tr.completeToWait = append(tr.completeToWait, waited.Sub(wd.lastDone).Seconds())
	}
	for task, ts := range wd.tasks {
		step := func(name string, from, to time.Time, samples *[]float64) {
			if from.IsZero() || to.IsZero() || to.Before(from) {
				return
			}
			t.add(span{parent: sid, name: task + " " + name, start: from, end: to, lane: lane, async: true})
			if samples != nil {
				*samples = append(*samples, to.Sub(from).Seconds())
			}
		}
		step("started", ts.started, ts.invoked, &tr.startToInvoke)
		step("invoked", ts.invoked, ts.firstSent, &tr.invokeToSent)
		step("sent", ts.firstSent, ts.lastSent, nil)
	}
}

// gcCPU is the CPU seconds the collector has used so far.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// perLayer runs the traced pass and returns the per-layer metrics.
// seconds bounds the layer probes; the cycles are fixed work
// (workload.traceCycles), so counts compare exactly between two commits.
func perLayer(w *workload, seed int64, seconds float64, tmpDir, outDir string) (result, error) {
	t := &tracer{}
	runID, endRun := t.begin(0, "run")
	wlID, endWorkload := t.begin(runID, w.name)

	// Untraced fixed cycles: counts and runtime figures.
	_, endPass := t.begin(wlID, "untraced cycles")
	in, err := setUp(w, seed, tmpDir)
	if err != nil {
		return result{}, err
	}
	base, mgrBase := read(ginflow.DefaultMetrics()), read(in.metrics)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, io0 := gcCPU(), bytesWritten()
	plain, err := runCycles(in, fixedCycles(w.traceCycles))
	if err != nil {
		return result{}, err
	}
	gc1, io1 := gcCPU(), bytesWritten()
	runtime.ReadMemStats(&ms1)
	// Counters are deltas over the measured cycles: the Manager's private
	// registry plus the process-wide one (HOCL, transport). A worker
	// process reports its counters once, at exit, warm-up cycle included:
	// they are scaled to the measured cycles.
	cnt := read(in.metrics).plus(mgrBase, -1).plus(read(ginflow.DefaultMetrics()), 1).plus(base, -1).
		plus(plain.worker.metrics, float64(w.traceCycles)/float64(w.traceCycles+1))
	snapshot := timeOp(20*time.Millisecond, func() { _ = in.metrics.Snapshot() })
	endPass()

	// Traced cycles on a fresh same-seed Manager.
	passID, endPass := t.begin(wlID, "traced cycles")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	prof, err := os.Create(filepath.Join(outDir, w.name+".cpu.pprof"))
	if err != nil {
		return result{}, err
	}
	defer prof.Close()
	in, err = setUp(w, seed, tmpDir)
	if err != nil {
		return result{}, err
	}
	tr := &traced{t: t, parent: passID}
	if err := pprof.StartCPUProfile(prof); err != nil {
		in.stop()
		return result{}, err
	}
	withTrace := &measured{newS: in.newS}
	for len(withTrace.cycles) < w.traceCycles {
		withTrace.cycles = append(withTrace.cycles, in.runCycle(context.Background(), tr.watch))
	}
	pprof.StopCPUProfile()
	closeS, _, err := in.stop()
	if err != nil {
		return result{}, err
	}
	endPass()

	// Layer probes.
	sh := shape{
		def: w.def, fanIn: w.fanIn(), waiters: w.agents() * w.fan,
		broker: w.broker, executor: w.executor, tmpDir: tmpDir,
	}
	probes, err := runProbes(sh, time.Duration(seconds/25*float64(time.Second)), func(name string) func() {
		_, end := t.begin(wlID, name)
		return end
	})
	if err != nil {
		return result{}, err
	}
	endWorkload()
	endRun()
	if err := t.writeChrome(filepath.Join(outDir, w.name+".spans.json")); err != nil {
		return result{}, err
	}

	plainSessions, tasks, failed, firstErr := plain.sessions()
	tracedSessions, _, tracedFailed, tracedErr := withTrace.sessions()
	failed += tracedFailed
	if firstErr == nil {
		firstErr = tracedErr
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "first failed session:", firstErr)
	}
	if tasks == 0 {
		return result{}, fmt.Errorf("no session completed: %v", firstErr)
	}
	var plainWalls, tracedWalls, submits []float64
	mismatches, recovered, deduped := 0, 0, int64(0)
	for i, s := range plainSessions {
		plainWalls = append(plainWalls, s.wallS)
		ts := tracedSessions[i]
		tracedWalls = append(tracedWalls, ts.wallS)
		submits = append(submits, ts.submitS)
		if s.modelS != ts.modelS {
			mismatches++
		}
		recovered += ts.recovered
		deduped += ts.deduped
	}

	nTasks := float64(tasks)
	cpuNS := plain.cpuS * 1e9
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := probes
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	firings, rejections := cnt["ginflow_hocl_rule_firings_total"], cnt["ginflow_hocl_guard_rejections_total"]
	put("hocl.reduce_calls", cnt["ginflow_hocl_reduce_calls_total"], "count")
	put("hocl.rule_firings", firings, "count")
	put("hocl.guard_rejections", rejections, "count")
	put("hocl.firing_yield", ratio(firings, firings+rejections), "ratio")
	put("cluster.model_time_mismatches", float64(mismatches), "count")
	deliveries := cnt["ginflow_mq_deliveries_total"]
	put("mq.published", cnt["ginflow_mq_published_total"], "count")
	put("mq.deliveries", deliveries, "count")
	put("mq.batches", cnt["ginflow_mq_delivery_batches_total"], "count")
	put("mq.batch_size_mean", ratio(cnt["ginflow_mq_batch_size_sum"], cnt["ginflow_mq_batch_size_count"]), "count")
	put("mq.messages_per_task", cnt["ginflow_mq_published_total"]/nTasks, "count")
	put("mq.deliveries_per_s", deliveries/plain.elapsed, "1/s")
	appends := cnt["ginflow_journal_appends_total"]
	put("journal.appends", appends, "count")
	put("journal.fsyncs", cnt["ginflow_journal_fsyncs_total"], "count")
	journalBytes := 0.0
	if w.journal {
		journalBytes = (io1 - io0) / nTasks
	}
	put("journal.bytes_per_task", journalBytes, "B")
	frames := cnt["ginflow_transport_frames_sent_total"]
	put("transport.frames_sent", frames, "count")
	put("transport.frames_received", cnt["ginflow_transport_frames_received_total"], "count")
	put("transport.frames_per_message", ratio(frames, cnt["ginflow_mq_published_total"]), "count")
	put("transport.reconnects", cnt["ginflow_transport_reconnects_total"], "count")
	put("agent.started_to_invoked_wall_s_p50", median(tr.startToInvoke), "s")
	put("agent.invoked_to_sent_wall_s_p50", median(tr.invokeToSent), "s")
	put("agent.recoveries", float64(recovered), "count")
	put("agent.dedup_suppressed", float64(deduped), "count")
	put("core.new_manager_s", (plain.newS+withTrace.newS)/2, "s")
	put("core.submit_call_s_p50", median(submits), "s")
	put("core.submit_to_first_invoke_s_p50", median(tr.submitToInvoke), "s")
	put("core.last_complete_to_wait_s_p50", median(tr.completeToWait), "s")
	put("core.close_s", (plain.closeS+closeS)/2, "s")
	put("core.agents_deployed", cnt["ginflow_agents_deployed_total"], "count")
	put("core.goroutines_peak", float64(plain.watch.goroutines), "count")
	put("obs.snapshot_ns", snapshot.ns, "ns")
	put("trace.overhead_ratio", ratio(median(tracedWalls), median(plainWalls)), "ratio")
	put("runtime.gc_cpu_share", ratio(gc1-gc0, plain.cpuS), "ratio")
	put("runtime.allocs_per_task", float64(ms1.Mallocs-ms0.Mallocs)/nTasks, "count")
	put("runtime.alloc_bytes_per_task", float64(ms1.TotalAlloc-ms0.TotalAlloc)/nTasks, "B")
	put("runtime.heap_inuse_peak_mb", plain.watch.heapMB, "MiB")

	// Computed shares of the untraced cycles' CPU: count x unit cost.
	// Every agent pays one first reduction (rule compilation and the
	// ingestion of its fan-in); every delivery one publish->deliver;
	// every journal append the mean of the two record kinds.
	hoclShare := ratio(cnt["ginflow_agents_deployed_total"]*probes["hocl.first_reduce_ns_op"].Value, cpuNS)
	mqShare := ratio(deliveries*probes["mq.publish_deliver_ns_msg"].Value, cpuNS)
	journalShare := ratio(appends*(probes["journal.append_status_ns_rec"].Value+probes["journal.append_inbox_ns_rec"].Value)/2, cpuNS)
	put("hocl.cpu_share_est", hoclShare, "ratio")
	put("mq.cpu_share_est", mqShare, "ratio")
	put("journal.cpu_share_est", journalShare, "ratio")
	put("other.cpu_share_est", 1-hoclShare-mqShare-journalShare, "ratio")

	return result{
		Correct:   failed == 0,
		Attempted: len(plainSessions) + len(tracedSessions),
		Failed:    failed,
		Metrics:   m,
	}, nil
}
