package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// The regeneration commands of the committed goldens.
const (
	regenQuick = "go run ./cmd/ginflow-bench -quick -runs 1 -json internal/bench/testdata/figures_quick.json"
	regenFull  = "go run ./cmd/ginflow-bench -json internal/bench/testdata/figures.json"
)

// TestFiguresGolden regenerates the quick figure set and requires it to
// match the committed golden: model time is a contract across versions,
// not only within one binary. Where the goldens were written (amd64
// without FMA) the bytes must match; elsewhere the compiler may fuse
// float multiply-adds and move the last bits, so floats match within
// fusedTolerance.
func TestFiguresGolden(t *testing.T) {
	var out bytes.Buffer
	figs, err := All(Options{Out: &out, Quick: true, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := figs.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/figures_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden Figures
	if err := json.Unmarshal(want, &golden); err != nil {
		t.Fatalf("testdata/figures_quick.json: %v", err)
	}
	diff := ""
	switch {
	case !exactFloats():
		diff = firstDiff(figs, golden, fusedTolerance)
	case !bytes.Equal(got.Bytes(), want):
		if diff = firstDiff(figs, golden, 0); diff == "" {
			diff = "the points match; the encoding differs"
		}
	}
	if diff != "" {
		t.Fatalf("model time moved: %s\nIf the move is intended, regenerate both goldens and say why in CHANGES.md:\n  %s\n  %s",
			diff, regenQuick, regenFull)
	}
	for _, header := range []string{"Fig. 12(a)", "Fig. 12(b)", "Fig. 13", "Fig. 14", "Fig. 15", "Fig. 16"} {
		if !strings.Contains(out.String(), header) {
			t.Errorf("output misses the %s header:\n%s", header, out.String())
		}
	}
}

// fusedTolerance is the relative float tolerance of the golden
// comparison on builds that may fuse multiply-adds.
const fusedTolerance = 1e-9

// exactFloats reports whether this binary rounds every float operation
// separately, as the amd64 build without FMA (GOAMD64 v1, v2) that wrote
// the goldens does.
func exactFloats() bool {
	if runtime.GOARCH != "amd64" {
		return false
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "GOAMD64" {
			return s.Value == "v1" || s.Value == "v2"
		}
	}
	return true
}

// firstDiff names the first point at which got differs from want, with
// floats equal when within tol of each other relatively; it returns ""
// when every point matches.
func firstDiff(got, want Figures, tol float64) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		name := g.Type().Field(i).Name
		gf, wf := g.Field(i), w.Field(i)
		if gf.Kind() != reflect.Slice {
			if !sameValue(gf, wf, tol) {
				return fmt.Sprintf("%s = %+v, golden %+v", name, gf.Interface(), wf.Interface())
			}
			continue
		}
		for j := 0; j < gf.Len() || j < wf.Len(); j++ {
			switch {
			case j >= wf.Len():
				return fmt.Sprintf("%s[%d] = %+v is not in the golden", name, j, gf.Index(j).Interface())
			case j >= gf.Len():
				return fmt.Sprintf("%s[%d] missing, golden %+v", name, j, wf.Index(j).Interface())
			case !sameValue(gf.Index(j), wf.Index(j), tol):
				return fmt.Sprintf("%s[%d] = %+v, golden %+v", name, j, gf.Index(j).Interface(), wf.Index(j).Interface())
			}
		}
	}
	return ""
}

// sameValue compares two points field by field, floats within tol.
func sameValue(a, b reflect.Value, tol float64) bool {
	switch a.Kind() {
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || math.Abs(x-y) <= tol*math.Max(math.Abs(x), math.Abs(y))
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i), tol) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

// paperFigures loads the committed paper-size golden, which the shape
// tests below read instead of rerunning the sweeps.
func paperFigures(t *testing.T) Figures {
	t.Helper()
	data, err := os.ReadFile("testdata/figures.json")
	if err != nil {
		t.Fatal(err)
	}
	var f Figures
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFig12QuickShape(t *testing.T) {
	f := paperFigures(t)
	grid := Fig12Grid(false)
	lo, hi := grid[0], grid[len(grid)-1]
	at := func(points []Fig12Point, h, v int) float64 { return fig12At(t, points, h, v) }
	for name, points := range map[string][]Fig12Point{"12a": f.Fig12a, "12b": f.Fig12b} {
		if len(points) != len(grid)*len(grid) {
			t.Fatalf("Fig. %s: %d points", name, len(points))
		}
		for _, p := range points {
			if p.Time <= 0 {
				t.Errorf("Fig. %s: non-positive time at %dx%d", name, p.H, p.V)
			}
		}
		// Time grows with the vertical dimension (layers serialize).
		if at(points, lo, hi) <= at(points, lo, lo) {
			t.Errorf("Fig. %s: time must grow with v: %v", name, points)
		}
	}
}

// fig12At returns the time of the h×v point of a Fig. 12 surface.
func fig12At(t *testing.T, points []Fig12Point, h, v int) float64 {
	t.Helper()
	for _, p := range points {
		if p.H == h && p.V == v {
			return p.Time
		}
	}
	t.Fatalf("no %dx%d point", h, v)
	return 0
}

func TestFig12FullyConnectedCostsMore(t *testing.T) {
	// Fully connecting the widest, deepest mesh pushes h² messages per
	// layer boundary through the broker where the simple flavour pushes h.
	f := paperFigures(t)
	grid := Fig12Grid(false)
	hi := grid[len(grid)-1]
	if simple, full := fig12At(t, f.Fig12a, hi, hi), fig12At(t, f.Fig12b, hi, hi); full <= 1.15*simple {
		t.Errorf("fully connected %dx%d %.1f should clearly exceed simple %.1f", hi, hi, full, simple)
	}
}

func TestFig13QuickShape(t *testing.T) {
	points := paperFigures(t).Fig13
	if len(points) != len(Fig13Scenarios())*len(Fig13Grid(false)) {
		t.Fatalf("points: %d", len(points))
	}
	for _, p := range points {
		if p.Ratio <= 0.5 || p.Ratio > 4.0 {
			t.Errorf("%s %dx%d: implausible ratio %.2f (baseline %.1f adaptive %.1f)",
				p.Scenario, p.N, p.N, p.Ratio, p.Baseline, p.Adaptive)
		}
	}
}

func TestFig14QuickShape(t *testing.T) {
	points := paperFigures(t).Fig14
	byKey := map[string]Fig14Point{}
	for _, p := range points {
		byKey[p.Executor+"/"+p.Broker+"/"+strconv.Itoa(p.Nodes)] = p
	}
	nodes := Fig14Nodes(false)
	if len(points) != 4*len(nodes) {
		t.Fatalf("points: %d", len(points))
	}
	for i, n := range nodes {
		// ActiveMQ must beat Kafka on execution time for the same executor.
		for _, ex := range []string{"ssh", "mesos"} {
			q := byKey[ex+"/activemq/"+strconv.Itoa(n)].Exec
			k := byKey[ex+"/kafka/"+strconv.Itoa(n)].Exec
			if k <= q {
				t.Errorf("%s on %d nodes: kafka exec %.1f must exceed activemq %.1f", ex, n, k, q)
			}
		}
		if i == 0 {
			continue
		}
		// Mesos deployment time decreases with nodes; SSH's increases.
		prev, cur := strconv.Itoa(nodes[i-1]), strconv.Itoa(n)
		if !(byKey["mesos/activemq/"+cur].Deploy < byKey["mesos/activemq/"+prev].Deploy) {
			t.Errorf("mesos deploy must shrink with nodes: %+v", points)
		}
		if !(byKey["ssh/activemq/"+cur].Deploy > byKey["ssh/activemq/"+prev].Deploy) {
			t.Errorf("ssh deploy must grow with nodes: %+v", points)
		}
	}
}

func TestFig15Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig15(Options{Out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"118 tasks", "108", "T<20", "critical path"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Fig15 output missing %q:\n%s", frag, out)
		}
	}
}

func TestFig16QuickShape(t *testing.T) {
	f := paperFigures(t)
	baseline := f.Fig16Baseline
	if baseline.Mean <= 0 {
		t.Fatalf("baseline: %+v", baseline)
	}
	ps, ts := Fig16Params(false)
	if len(f.Fig16) != len(ps)*len(ts) {
		t.Fatalf("points: %+v", f.Fig16)
	}
	for _, p := range f.Fig16 {
		if p.Failures == 0 {
			t.Errorf("p=%v T=%v: no failures observed", p.P, p.T)
		}
		if p.Mean <= baseline.Mean {
			t.Errorf("p=%v T=%v: failures must cost time: %.0f vs baseline %.0f", p.P, p.T, p.Mean, baseline.Mean)
		}
		// Observed failures stay within a factor 2.5 of the paper's
		// p/(1-p)·N_T estimate.
		if p.Failures < p.Expected/2.5 || p.Failures > p.Expected*2.5 {
			t.Errorf("p=%v T=%v: failures %.0f vs expected %.0f diverge", p.P, p.T, p.Failures, p.Expected)
		}
	}
}

// TestExpectedFailures checks the paper's §V-D estimate against the
// values it reports: with 118 services and T=0, p = 0.2/0.5/0.8 give
// about 26/114/487 observed failures (expected ≈ 29.5/118/472).
func TestExpectedFailures(t *testing.T) {
	cases := []struct {
		p        float64
		nT       int
		observed float64 // from the paper
	}{
		{0.2, 118, 26},
		{0.5, 118, 114},
		{0.8, 118, 487},
	}
	for _, c := range cases {
		want := expectedFailures(c.p, c.nT)
		// The paper's observations should lie within ~25% of the model.
		if math.Abs(want-c.observed)/want > 0.25 {
			t.Errorf("p=%v: model %v vs paper %v diverge", c.p, want, c.observed)
		}
	}
	// Outside (0, 1) the estimate has no finite value; it reads 0.
	for _, p := range []float64{0, 1} {
		if got := expectedFailures(p, 100); got != 0 {
			t.Errorf("p=%v: %v", p, got)
		}
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || s != 2 {
		t.Errorf("meanStd = %v, %v; want 5, 2", m, s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Errorf("empty meanStd = %v, %v", m, s)
	}
}
