package montage

import (
	"context"
	"math"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/core"
	"ginflow/internal/executor"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
)

func TestWorkflowShape(t *testing.T) {
	d := Workflow()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.TaskCount(); got != TotalTasks {
		t.Errorf("tasks = %d, want %d (paper: 118)", got, TotalTasks)
	}
	if got := d.Entries(); len(got) != 1 || got[0] != "MHDR" {
		t.Errorf("entries = %v", got)
	}
	if got := d.Exits(); len(got) != 1 || got[0] != "MJPEG" {
		t.Errorf("exits = %v", got)
	}
	// The projection stage is 108 wide: MIMGTBL has 108 sources.
	if got := len(d.SrcOf("MIMGTBL")); got != ParallelWidth {
		t.Errorf("MIMGTBL fan-in = %d, want %d", got, ParallelWidth)
	}
	if _, err := d.TopoOrder(); err != nil {
		t.Error(err)
	}
}

// TestDurationCDFBands checks the Fig. 15 bands: a small share below
// 20 s, a small share between 20 and 60 s, and the dominant band above
// 60 s.
func TestDurationCDFBands(t *testing.T) {
	durs := Durations()
	if len(durs) != TotalTasks {
		t.Fatalf("durations for %d tasks", len(durs))
	}
	var under20, mid, over60 int
	for _, d := range durs {
		switch {
		case d < 20:
			under20++
		case d <= 60:
			mid++
		default:
			over60++
		}
	}
	if under20 != 5 || mid != 5 || over60 != ParallelWidth {
		t.Errorf("bands = %d/%d/%d, want 5/5/108", under20, mid, over60)
	}
	// §V-D: "95% of the services have a running time greater than 15s".
	n15 := TasksLongerThan(15)
	if frac := float64(n15) / TotalTasks; frac < 0.93 {
		t.Errorf("fraction of tasks >15s = %.2f, want ≈0.95", frac)
	}
	// Projection durations span 60..310 (§V-D: "from 60s to 310s").
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 1; i <= ParallelWidth; i++ {
		d := projectDuration(i)
		lo = math.Min(lo, d)
		hi = math.Max(hi, d)
	}
	if lo < 60 || lo > 65 {
		t.Errorf("min projection duration = %v, want ≈60", lo)
	}
	if hi < 250 || hi > 310 {
		t.Errorf("max projection duration = %v, want in the 250..310 band", hi)
	}
}

func TestProjectDurationsAreAPermutationSpread(t *testing.T) {
	seen := map[float64]bool{}
	for i := 1; i <= ParallelWidth; i++ {
		d := projectDuration(i)
		if seen[d] {
			t.Fatalf("duplicate projection duration %v", d)
		}
		seen[d] = true
	}
}

func TestCriticalPathNearPaperBaseline(t *testing.T) {
	cp := CriticalPathSeconds()
	// The paper's no-failure baseline is 484 s (σ = 13.5). Messaging adds
	// on top of the pure compute path, so the modelled path sits slightly
	// below it.
	if cp < 400 || cp > 550 {
		t.Errorf("critical path = %.0f model seconds, want within [400, 550]", cp)
	}
}

func TestCDFMonotone(t *testing.T) {
	points := CDF()
	if len(points) != TotalTasks {
		t.Fatalf("CDF has %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Seconds < points[i-1].Seconds || points[i].Fraction <= points[i-1].Fraction {
			t.Fatalf("CDF not monotone at %d: %+v -> %+v", i, points[i-1], points[i])
		}
	}
	last := points[len(points)-1]
	if last.Fraction != 1.0 {
		t.Errorf("CDF must end at 1.0, got %v", last.Fraction)
	}
}

func TestKernelsAreDeterministicAndIdempotent(t *testing.T) {
	reg := agent.NewRegistry()
	RegisterServices(reg)
	services := map[string]bool{}
	for _, task := range Workflow().Tasks {
		if _, ok := reg.Lookup(task.Service); !ok {
			t.Fatalf("task %s: service %q not registered", task.ID, task.Service)
		}
		services[task.Service] = true
	}
	if len(services) != TotalTasks {
		t.Fatalf("%d distinct services, want %d", len(services), TotalTasks)
	}
	svc, ok := reg.Lookup(serviceName("MADD"))
	if !ok {
		t.Fatal("MADD kernel missing")
	}
	params := []hocl.Atom{hocl.Str("b"), hocl.Str("a")}
	r1, err := svc.Invoke(params)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Invoke([]hocl.Atom{hocl.Str("a"), hocl.Str("b")}) // order-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Equal(r2) {
		t.Errorf("kernel not order-insensitive: %v vs %v", r1, r2)
	}
}

// TestMontageRunsDistributed executes the full 118-task Montage workflow
// on the decentralised engine (Mesos + Kafka, the §V-D configuration) at
// a fast clock scale.
func TestMontageRunsDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("full Montage run")
	}
	reg := agent.NewRegistry()
	RegisterServices(reg)
	rep, err := core.Run(context.Background(), Workflow(), reg, core.Config{
		Executor: executor.KindMesos,
		Broker:   mq.KindLog,
		Cluster:  cluster.Config{Nodes: 25, CoresPerNode: 24, Scale: 100 * time.Microsecond},
		Timeout:  120 * time.Second,
	})
	if err != nil {
		t.Fatalf("run: %v (report %v)", err, rep)
	}
	if got := rep.Statuses["MJPEG"]; got != hoclflow.StatusCompleted {
		t.Errorf("MJPEG = %v", got)
	}
	res := rep.Results["MJPEG"]
	if len(res) != 1 || res[0] != `"mjpeg[1]"` {
		t.Errorf("mosaic result = %v", res)
	}
	if rep.Agents != TotalTasks {
		t.Errorf("agents = %d", rep.Agents)
	}
}
