package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"ginflow"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload re-executes itself as the tcp-diamond worker.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-worker" {
		if err := workerMain(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// TestToyWorkloads runs every workload at toy size through the measured
// loop and the outcome check, and checks the end-to-end metric names
// against BENCHMARK.json.
func TestToyWorkloads(t *testing.T) {
	sp := mustSpec(t)
	var declared []string
	for _, wl := range sp.Workloads {
		declared = append(declared, wl.Name)
	}
	if !equalSets(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", declared, workloadNames)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, true)
			if err != nil {
				t.Fatal(err)
			}
			in, err := setUp(w, 7, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			m, err := runCycles(in, fixedCycles(3))
			if err != nil {
				t.Fatal(err)
			}
			res, err := endToEndMetrics(m, []float64{0.1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 3*w.fan {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkNames(t, res, sp.EndToEnd, 16)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, end-to-end metrics are never 0", name, m.Value)
				}
			}
		})
	}
}

// TestFailingServiceIsCounted makes a mesh service raise with no
// adaptation declared: the session stalls, times out and must be counted
// as failed, not dropped.
func TestFailingServiceIsCounted(t *testing.T) {
	w, err := newWorkload("mesh-wide", true)
	if err != nil {
		t.Fatal(err)
	}
	task, _ := w.def.TaskByID("N2_2")
	task.Service = "flaky"
	w.opts = append(w.opts, ginflow.WithTimeout(300*time.Millisecond))
	in, err := w.start(7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := runCycles(in, fixedCycles(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, failed, firstErr := m.sessions(); failed != 2 || firstErr == nil {
		t.Errorf("failed = %d (%v), want 2", failed, firstErr)
	}
}

// TestPerLayerNames runs the traced pass on a toy workload with a
// journal and checks that exactly the per-layer metrics BENCHMARK.json
// declares are reported, with the journal counts moving.
func TestPerLayerNames(t *testing.T) {
	sp := mustSpec(t)
	w, err := newWorkload("durable-montage", true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := perLayer(w, 7, 0.25, t.TempDir(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced pass incorrect: %d of %d sessions failed", res.Failed, res.Attempted)
	}
	checkNames(t, res, sp.PerLayer, 128)
	for _, name := range []string{"journal.appends", "mq.published", "hocl.reduce_calls", "agent.recoveries"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on durable-montage, want > 0", name, res.Metrics[name].Value)
		}
	}
	if v := res.Metrics["transport.frames_sent"].Value; v != 0 {
		t.Errorf("transport.frames_sent = %v on a workload without a worker process", v)
	}
}

// TestCompare checks the comparator's verdicts: a set against itself
// passes, a metric worse by more than its bound or a failed session does
// not.
func TestCompare(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp := mustSpec(t)
	set := func(scale float64, failed int) string {
		rs := resultSet{Workloads: map[string]workloadRun{}}
		for _, wl := range sp.Workloads {
			res := result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]metric{}}
			for _, ms := range sp.EndToEnd {
				v := 100.0
				if ms.Name == "tasks_per_s" {
					v /= scale
				}
				res.Metrics[ms.Name] = metric{v, ms.Unit}
			}
			rs.Workloads[wl.Name] = workloadRun{EndToEnd: res}
		}
		data, _ := json.Marshal(rs)
		path := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set(1, 0)
	var out bytes.Buffer
	if err := compareFiles(root, base, set(1, 0), &out); err != nil {
		t.Errorf("A/A comparison failed: %v\n%s", err, out.String())
	}
	if err := compareFiles(root, base, set(1.5, 0), &out); err == nil {
		t.Error("throughput a third lower passed the comparison")
	}
	if err := compareFiles(root, base, set(1, 1), &out); err == nil {
		t.Error("a failed session passed the comparison")
	}
}

// TestSurvivingAPIOnly is the grep over the benchmark's own sources:
// internal packages are imported by layers.go alone, and nothing calls
// the surfaces ROADMAP item C is about to delete.
func TestSurvivingAPIOnly(t *testing.T) {
	forbidden := regexp.MustCompile(`\.C\(\)|\.Batches\(\)|\.Publish\(|\.Payload\b|\.Apply\(|EvalScalar|EvalElems|ginflow/internal/bench`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := forbidden.Find(src); m != nil {
			t.Errorf("%s uses %q", f, m)
		}
		if f != "layers.go" && bytes.Contains(src, []byte(`"ginflow/internal/`)) {
			t.Errorf("%s imports an internal package; only layers.go may", f)
		}
	}
}

func mustSpec(t *testing.T) *spec {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames requires the reported metrics to be exactly the declared
// ones, with the declared units.
func checkNames(t *testing.T, res result, declared []metricSpec, limit int) {
	t.Helper()
	if len(declared) > limit {
		t.Errorf("%d metrics declared, limit %d", len(declared), limit)
	}
	var want, got []string
	for _, ms := range declared {
		want = append(want, ms.Name)
		if !nameRE.MatchString(ms.Name) {
			t.Errorf("metric name %q is malformed", ms.Name)
		}
		if m, ok := res.Metrics[ms.Name]; ok && m.Unit != ms.Unit {
			t.Errorf("%s reported in %q, declared in %q", ms.Name, m.Unit, ms.Unit)
		}
	}
	for name := range res.Metrics {
		got = append(got, name)
	}
	if !equalSets(want, got) {
		sort.Strings(want)
		sort.Strings(got)
		t.Errorf("declared metrics %v\nreported metrics %v", want, got)
	}
}

func equalSets(a, b []string) bool {
	seen := map[string]int{}
	for _, s := range a {
		seen[s]++
	}
	for _, s := range b {
		seen[s]--
	}
	for _, n := range seen {
		if n != 0 {
			return false
		}
	}
	return true
}
