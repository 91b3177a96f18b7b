package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/core"
	"ginflow/internal/executor"
	"ginflow/internal/mq"
	"ginflow/internal/workflow"
)

// quickOpts runs experiments on reduced grids on the virtual clock: the
// shape assertions below order model seconds, which on the scaled real
// clock (1 ms per model second) a busy box reorders.
func quickOpts(buf *bytes.Buffer) Options {
	return Options{
		Out:     buf,
		Quick:   true,
		Runs:    1,
		Virtual: true,
	}
}

func TestFig12QuickShape(t *testing.T) {
	var buf bytes.Buffer
	simple, err := Fig12(quickOpts(&buf), false)
	if err != nil {
		t.Fatal(err)
	}
	grid := Fig12Grid(true)
	if len(simple) != len(grid)*len(grid) {
		t.Fatalf("points: %d", len(simple))
	}
	byHV := map[[2]int]float64{}
	for _, p := range simple {
		if p.Time <= 0 {
			t.Fatalf("non-positive time at %dx%d", p.H, p.V)
		}
		byHV[[2]int{p.H, p.V}] = p.Time
	}
	// Time grows with the vertical dimension (layers serialize).
	lo, hi := grid[0], grid[len(grid)-1]
	if byHV[[2]int{lo, hi}] <= byHV[[2]int{lo, lo}] {
		t.Errorf("time must grow with v: %v", byHV)
	}
	if !strings.Contains(buf.String(), "Fig. 12(a)") {
		t.Errorf("output header missing:\n%s", buf.String())
	}
}

// TestDiamondSweepQuick runs the scaling sweep in both modes on the
// reduced grid: standalone runs and the whole sweep fanned through one
// shared Manager, which must produce per-size results of the same shape.
func TestDiamondSweepQuick(t *testing.T) {
	var buf bytes.Buffer
	standalone, _, err := DiamondSweep(quickOpts(&buf), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	shared, _, err := DiamondSweep(quickOpts(&buf), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	sizes := SweepSizes(true)
	if len(standalone) != len(sizes) || len(shared) != len(sizes) {
		t.Fatalf("points: standalone=%d shared=%d, want %d", len(standalone), len(shared), len(sizes))
	}
	for i := range sizes {
		if standalone[i].N != sizes[i] || shared[i].N != sizes[i] {
			t.Errorf("size order: standalone=%v shared=%v", standalone, shared)
		}
		if standalone[i].Exec <= 0 || shared[i].Exec <= 0 {
			t.Errorf("non-positive exec at %dx%d", sizes[i], sizes[i])
		}
	}
	// Bigger meshes take longer when run back to back. (No such
	// monotonicity holds in shared mode: concurrent sessions contend on
	// the one middleware, so a small mesh can queue behind a big one.)
	last := len(sizes) - 1
	if standalone[last].Exec <= standalone[0].Exec {
		t.Errorf("standalone sweep not scaling: %v", standalone)
	}
	if !strings.Contains(buf.String(), "shared Manager") {
		t.Errorf("output header missing:\n%s", buf.String())
	}
}

func TestFig12FullyConnectedCostsMore(t *testing.T) {
	// A wide, shallow diamond separates the two flavours structurally:
	// 20x4 fully connected pushes 400 messages per layer boundary through
	// the shared broker where the simple flavour pushes 20. The quick
	// grid's small squares are too close to distinguish under load noise
	// (e.g. with the race detector), so measure this shape directly.
	run := func(fully bool) float64 {
		def := workflow.Diamond(workflow.DefaultDiamondSpec(20, 4, fully))
		rep, err := runOnce(Options{Scale: time.Millisecond, Timeout: time.Minute}.withDefaults(),
			def, diamondServices(), core.Config{
				Executor: executor.KindSSH,
				Broker:   mq.KindQueue,
				Cluster: cluster.Config{
					Nodes: 25, CoresPerNode: 24, Scale: time.Millisecond, Seed: 7,
				},
			})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ExecTime
	}
	simple := run(false)
	full := run(true)
	if full <= simple*1.15 {
		t.Errorf("fully connected %0.1f should clearly exceed simple %0.1f", full, simple)
	}
}

func TestFig13QuickShape(t *testing.T) {
	var buf bytes.Buffer
	points, err := Fig13(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3*len(Fig13Grid(true)) {
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
	var buf bytes.Buffer
	points, err := Fig14(quickOpts(&buf))
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig14Point{}
	for _, p := range points {
		byKey[p.Executor+"/"+p.Broker+"/"+strconv.Itoa(p.Nodes)] = p
	}
	// ActiveMQ must beat Kafka on execution time for the same executor.
	for _, ex := range []string{"ssh", "mesos"} {
		q := byKey[ex+"/activemq/5"].Exec
		k := byKey[ex+"/kafka/5"].Exec
		if k <= q {
			t.Errorf("%s: kafka exec %.1f must exceed activemq %.1f", ex, k, q)
		}
	}
	// Mesos deployment time decreases with nodes; SSH's increases.
	if !(byKey["mesos/activemq/10"].Deploy < byKey["mesos/activemq/5"].Deploy) {
		t.Errorf("mesos deploy must shrink with nodes: %+v", points)
	}
	if !(byKey["ssh/activemq/10"].Deploy > byKey["ssh/activemq/5"].Deploy) {
		t.Errorf("ssh deploy must grow with nodes: %+v", points)
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
	var buf bytes.Buffer
	opts := quickOpts(&buf)
	baseline, points, err := Fig16(opts)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Mean <= 0 {
		t.Fatalf("baseline: %+v", baseline)
	}
	if len(points) != 1 { // quick: p=0.5, T=0
		t.Fatalf("points: %+v", points)
	}
	p := points[0]
	if p.Failures == 0 {
		t.Error("no failures observed at p=0.5")
	}
	if p.Mean <= baseline.Mean {
		t.Errorf("failures must cost time: %0.f vs baseline %0.f", p.Mean, baseline.Mean)
	}
	// Observed failures should be within a factor ~2.5 of the paper's
	// p/(1-p)·N_T estimate even on a single run.
	if p.Failures < p.Expected/2.5 || p.Failures > p.Expected*2.5 {
		t.Errorf("failures %.0f vs expected %.0f diverge", p.Failures, p.Expected)
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
