// Package bench regenerates every figure of the paper's evaluation
// (§V): the diamond coordination-timespan surfaces (Fig. 12), the
// adaptiveness ratios (Fig. 13), the executor × middleware comparison
// (Fig. 14), the Montage workload shape and duration CDF (Fig. 15) and
// the resilience-under-failure-injection bars (Fig. 16). The same code
// backs the ginflow-bench CLI.
//
// All reported times are model seconds on the virtual clock (see
// internal/cluster): absolute values are not comparable to the paper's
// testbed, but the shapes — who wins, by what factor, where crossovers
// fall — are the reproduction target. Every point is committed as a
// golden in testdata/figures.json (paper sizes) and
// testdata/figures_quick.json (-quick -runs 1); see All.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/core"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/montage"
	"ginflow/internal/mq"
	"ginflow/internal/workflow"
)

// Options tunes an experiment run. Every run is on the discrete-event
// virtual clock (see internal/cluster), so a given Options always
// yields the same points, bit for bit.
type Options struct {
	// Out receives the rendered tables (io.Discard when nil).
	Out io.Writer
	// Runs is the number of repetitions for averaged experiments
	// (default 3; the paper uses up to 10).
	Runs int
	// Quick shrinks the sweeps for smoke tests.
	Quick bool
	// Seed makes runs reproducible (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Figures holds every point of the figures All runs, exactly as Fig12,
// Fig13, Fig14 and Fig16 return them.
type Figures struct {
	Fig12a, Fig12b []Fig12Point
	Fig13          []Fig13Point
	Fig14          []Fig14Point
	Fig16Baseline  Fig16Point
	Fig16          []Fig16Point
}

// All reproduces Figs. 12(a), 12(b), 13, 14 and 16, prints Fig. 15 in
// between, and returns the points.
func All(opts Options) (Figures, error) {
	opts = opts.withDefaults()
	var f Figures
	var err error
	steps := []func() error{
		func() error { f.Fig12a, err = Fig12(opts, false); return err },
		func() error { f.Fig12b, err = Fig12(opts, true); return err },
		func() error { f.Fig13, err = Fig13(opts); return err },
		func() error { f.Fig14, err = Fig14(opts); return err },
		func() error { return Fig15(opts) },
		func() error { f.Fig16Baseline, f.Fig16, err = Fig16(opts); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return f, err
		}
		fmt.Fprintln(opts.Out)
	}
	return f, nil
}

// WriteJSON encodes f in the form of the committed goldens.
func (f Figures) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// MeshTaskDuration is the modelled duration of a diamond mesh task: the
// paper's tasks "only simulate a simple script with a (very low)
// constant execution time" (§V).
const MeshTaskDuration = 2.0

// diamondServices registers the noop services of the diamond workloads.
func diamondServices() *agent.Registry {
	reg := agent.NewRegistry()
	reg.RegisterNoop(MeshTaskDuration, "split", "work", "merge", "workalt")
	return reg
}

func clusterConfig(nodes int, seed int64) cluster.Config {
	return cluster.Config{
		Nodes:        nodes,
		CoresPerNode: 24,
		Seed:         seed,
		Virtual:      true,
	}
}

// --- Fig. 12: coordination timespan of diamond workflows -----------------

// Fig12Point is one cell of the Fig. 12 surface.
type Fig12Point struct {
	H, V int
	Time float64 // execution (coordination) time, model seconds
}

// Fig12Grid returns the (h, v) sample grid: the paper sweeps 1..31; the
// default harness samples it, and Quick shrinks further.
func Fig12Grid(quick bool) []int {
	if quick {
		return []int{1, 4, 8}
	}
	return []int{1, 6, 11, 16, 21, 26, 31}
}

// Fig12 reproduces Fig. 12(a) (simple-connected) or 12(b) (fully
// connected): execution time of an h×v diamond on 25 nodes over
// SSH + ActiveMQ, for every grid point.
func Fig12(opts Options, fully bool) ([]Fig12Point, error) {
	opts = opts.withDefaults()
	grid := Fig12Grid(opts.Quick)
	flavour := "simple"
	if fully {
		flavour = "fully"
	}
	fmt.Fprintf(opts.Out, "# Fig. 12(%s): coordination timespan, %s-connected diamond (model seconds)\n",
		map[bool]string{false: "a", true: "b"}[fully], flavour)
	fmt.Fprintf(opts.Out, "%-6s", "v\\h")
	for _, h := range grid {
		fmt.Fprintf(opts.Out, "%10d", h)
	}
	fmt.Fprintln(opts.Out)

	var points []Fig12Point
	for _, v := range grid {
		fmt.Fprintf(opts.Out, "%-6d", v)
		for _, h := range grid {
			var sum float64
			for run := 0; run < opts.Runs; run++ {
				def := workflow.Diamond(workflow.DefaultDiamondSpec(h, v, fully))
				rep, err := core.Run(context.Background(), def, diamondServices(), core.Config{
					Executor: executor.KindSSH,
					Broker:   mq.KindQueue,
					Cluster:  clusterConfig(25, opts.Seed+int64(run)),
				})
				if err != nil {
					return points, fmt.Errorf("fig12 %dx%d: %w", h, v, err)
				}
				sum += rep.ExecTime
			}
			mean := sum / float64(opts.Runs)
			points = append(points, Fig12Point{H: h, V: v, Time: mean})
			fmt.Fprintf(opts.Out, "%10.1f", mean)
		}
		fmt.Fprintln(opts.Out)
	}
	return points, nil
}

// --- Fig. 13: adaptiveness ratio ------------------------------------------

// Fig13Scenario names the three replacement scenarios of §V-B.
type Fig13Scenario struct {
	Name                 string
	BaseFully, ReplFully bool
}

// Fig13Scenarios returns the paper's three scenarios.
func Fig13Scenarios() []Fig13Scenario {
	return []Fig13Scenario{
		{Name: "simple-to-simple", BaseFully: false, ReplFully: false},
		{Name: "simple-to-full", BaseFully: false, ReplFully: true},
		{Name: "full-to-simple", BaseFully: true, ReplFully: false},
	}
}

// Fig13Point is one bar of Fig. 13: the with-adaptiveness over
// without-adaptiveness execution-time ratio for an n×n diamond.
type Fig13Point struct {
	N        int
	Scenario string
	Ratio    float64
	Baseline float64
	Adaptive float64
}

// Fig13Grid returns the square sizes swept (paper: 1, 6, 11, 16, 21).
func Fig13Grid(quick bool) []int {
	if quick {
		return []int{1, 4}
	}
	return []int{1, 6, 11, 16, 21}
}

// Fig13 reproduces the adaptiveness experiment: a square diamond runs
// once plainly (reference) and once with an execution exception raised
// on the last mesh service, which swaps the whole body for a replacement
// mesh on-the-fly (§V-B).
func Fig13(opts Options) ([]Fig13Point, error) {
	opts = opts.withDefaults()
	fmt.Fprintln(opts.Out, "# Fig. 13: with-adaptiveness-over-without-adaptiveness ratio")
	fmt.Fprintf(opts.Out, "%-10s %-18s %12s %12s %8s\n", "config", "scenario", "baseline(s)", "adaptive(s)", "ratio")

	var points []Fig13Point
	for _, sc := range Fig13Scenarios() {
		for _, n := range Fig13Grid(opts.Quick) {
			spec := workflow.DefaultDiamondSpec(n, n, sc.BaseFully)

			var baseSum, adaptSum float64
			for run := 0; run < opts.Runs; run++ {
				base, err := core.Run(context.Background(), workflow.Diamond(spec), diamondServices(), core.Config{
					Executor: executor.KindSSH,
					Broker:   mq.KindQueue,
					Cluster:  clusterConfig(25, opts.Seed+int64(run)),
				})
				if err != nil {
					return points, fmt.Errorf("fig13 %s %dx%d baseline: %w", sc.Name, n, n, err)
				}
				baseSum += base.ExecTime

				def := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, sc.ReplFully, "workalt")
				last, _ := def.TaskByID(workflow.LastMeshTask(spec))
				last.Service = "flaky"
				services := diamondServices()
				services.RegisterFailing("flaky", MeshTaskDuration)

				adapt, err := core.Run(context.Background(), def, services, core.Config{
					Executor: executor.KindSSH,
					Broker:   mq.KindQueue,
					Cluster:  clusterConfig(25, opts.Seed+int64(run)),
				})
				if err != nil {
					return points, fmt.Errorf("fig13 %s %dx%d adaptive: %w", sc.Name, n, n, err)
				}
				adaptSum += adapt.ExecTime
			}

			p := Fig13Point{
				N: n, Scenario: sc.Name,
				Baseline: baseSum / float64(opts.Runs),
				Adaptive: adaptSum / float64(opts.Runs),
			}
			p.Ratio = p.Adaptive / p.Baseline
			points = append(points, p)
			fmt.Fprintf(opts.Out, "%-10s %-18s %12.1f %12.1f %8.2f\n",
				fmt.Sprintf("%dx%d", n, n), sc.Name, p.Baseline, p.Adaptive, p.Ratio)
		}
	}
	return points, nil
}

// --- Fig. 14: executor and messaging middleware impact --------------------

// Fig14Point is one bar group of Fig. 14.
type Fig14Point struct {
	Executor string
	Broker   string
	Nodes    int
	Deploy   float64
	Exec     float64
}

// Fig14Nodes returns the node counts swept (paper: 5, 10, 15).
func Fig14Nodes(quick bool) []int {
	if quick {
		return []int{5, 10}
	}
	return []int{5, 10, 15}
}

// Fig14 reproduces the executor × middleware comparison: a 10×10
// simple-connected diamond (Quick: 4×4) under every combination of
// {SSH, Mesos} × {ActiveMQ, Kafka}, with deployment and execution times
// split, averaged over opts.Runs runs.
func Fig14(opts Options) ([]Fig14Point, error) {
	opts = opts.withDefaults()
	h, v := 10, 10
	if opts.Quick {
		h, v = 4, 4
	}
	fmt.Fprintf(opts.Out, "# Fig. 14: %dx%d diamond, deployment and execution time (model seconds, mean of %d runs)\n",
		h, v, opts.Runs)
	fmt.Fprintf(opts.Out, "%-8s %-10s %6s %12s %12s\n", "executor", "broker", "nodes", "deploy(s)", "exec(s)")

	var points []Fig14Point
	for _, exKind := range []executor.Kind{executor.KindSSH, executor.KindMesos} {
		for _, brKind := range []mq.Kind{mq.KindQueue, mq.KindLog} {
			for _, nodes := range Fig14Nodes(opts.Quick) {
				var deploySum, execSum float64
				for run := 0; run < opts.Runs; run++ {
					def := workflow.Diamond(workflow.DefaultDiamondSpec(h, v, false))
					rep, err := core.Run(context.Background(), def, diamondServices(), core.Config{
						Executor: exKind,
						Broker:   brKind,
						Cluster:  clusterConfig(nodes, opts.Seed+int64(run)),
					})
					if err != nil {
						return points, fmt.Errorf("fig14 %s/%s/%d: %w", exKind, brKind, nodes, err)
					}
					deploySum += rep.DeployTime
					execSum += rep.ExecTime
				}
				p := Fig14Point{
					Executor: string(exKind), Broker: string(brKind), Nodes: nodes,
					Deploy: deploySum / float64(opts.Runs),
					Exec:   execSum / float64(opts.Runs),
				}
				points = append(points, p)
				fmt.Fprintf(opts.Out, "%-8s %-10s %6d %12.1f %12.1f\n",
					p.Executor, p.Broker, p.Nodes, p.Deploy, p.Exec)
			}
		}
	}
	return points, nil
}

// --- Fig. 15: Montage shape and CDF ----------------------------------------

// Fig15 prints the Montage workflow's stage widths and task-duration CDF
// bands, the two panels of Fig. 15.
func Fig15(opts Options) error {
	opts = opts.withDefaults()
	def := montage.Workflow()
	order, err := def.TopoOrder()
	if err != nil {
		return err
	}
	fmt.Fprintf(opts.Out, "# Fig. 15: Montage workflow — %d tasks, %d edges\n",
		def.TaskCount(), def.EdgeCount())

	// Stage widths along the topological levels.
	level := map[string]int{}
	for _, id := range order {
		max := 0
		for _, src := range def.SrcOf(id) {
			if level[src]+1 > max {
				max = level[src] + 1
			}
		}
		level[id] = max
	}
	widths := map[int]int{}
	deepest := 0
	for _, l := range level {
		widths[l]++
		if l > deepest {
			deepest = l
		}
	}
	fmt.Fprint(opts.Out, "shape (tasks per level): ")
	for l := 0; l <= deepest; l++ {
		if l > 0 {
			fmt.Fprint(opts.Out, " -> ")
		}
		fmt.Fprintf(opts.Out, "%d", widths[l])
	}
	fmt.Fprintln(opts.Out)

	// CDF bands (the paper annotates T<20, 20<T<60, 60<T).
	var under20, mid, over60 int
	for _, d := range montage.Durations() {
		switch {
		case d < 20:
			under20++
		case d <= 60:
			mid++
		default:
			over60++
		}
	}
	total := float64(montage.TotalTasks)
	fmt.Fprintf(opts.Out, "duration CDF bands: T<20: %.1f%%   20<T<60: %.1f%%   60<T: %.1f%%\n",
		100*float64(under20)/total, 100*float64(mid)/total, 100*float64(over60)/total)
	fmt.Fprintf(opts.Out, "critical path: %.0f model seconds (paper no-failure baseline: 484 s)\n",
		montage.CriticalPathSeconds())

	fmt.Fprintln(opts.Out, "CDF:")
	points := montage.CDF()
	step := len(points) / 10
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(points); i += step {
		fmt.Fprintf(opts.Out, "  %6.0f s  %5.1f%%\n", points[i].Seconds, 100*points[i].Fraction)
	}
	return nil
}

// --- Fig. 16: resilience under failure injection ---------------------------

// Fig16Point is one bar of Fig. 16: mean execution time under failure
// injection (p, T), plus the observed failure count.
type Fig16Point struct {
	P, T     float64
	Mean     float64
	Std      float64
	Failures float64 // mean observed crashes per run
	Expected float64 // the paper's p/(1-p)·N_T estimate
}

// Fig16Params returns the (p, T) grid (paper: p ∈ {.2,.5,.8} × T ∈
// {0,15,100}).
func Fig16Params(quick bool) (ps, ts []float64) {
	if quick {
		return []float64{0.5}, []float64{0}
	}
	return []float64{0.2, 0.5, 0.8}, []float64{0, 15, 100}
}

// Fig16 reproduces the resilience experiment: Montage on Mesos + Kafka
// with agents crashing with probability p a time T into their service,
// recovered by inbox replay. The no-failure baseline is measured first
// (the dashed line of Fig. 16).
func Fig16(opts Options) (baseline Fig16Point, points []Fig16Point, err error) {
	opts = opts.withDefaults()
	fmt.Fprintf(opts.Out, "# Fig. 16: Montage under failure injection (Mesos + Kafka, mean of %d runs, model seconds)\n", opts.Runs)

	runMontage := func(p, t float64, seed int64) (*core.Report, error) {
		reg := agent.NewRegistry()
		montage.RegisterServices(reg)
		return core.Run(context.Background(), montage.Workflow(), reg, core.Config{
			Executor: executor.KindMesos,
			Broker:   mq.KindLog,
			Cluster:  clusterConfig(25, seed),
			Chaos:    failure.ChaosConfig{AgentCrashP: p, AgentCrashAfter: t},
		})
	}

	measure := func(p, t float64) (Fig16Point, error) {
		var times []float64
		var failSum float64
		for run := 0; run < opts.Runs; run++ {
			rep, err := runMontage(p, t, opts.Seed+int64(run))
			if err != nil {
				return Fig16Point{}, err
			}
			times = append(times, rep.ExecTime)
			failSum += float64(rep.Failures)
		}
		mean, std := meanStd(times)
		nT := montage.TasksLongerThan(t)
		return Fig16Point{
			P: p, T: t, Mean: mean, Std: std,
			Failures: failSum / float64(opts.Runs),
			Expected: expectedFailures(p, nT),
		}, nil
	}

	baseline, err = measure(0, 0)
	if err != nil {
		return baseline, nil, fmt.Errorf("fig16 baseline: %w", err)
	}
	fmt.Fprintf(opts.Out, "baseline (no failures): %.0f s (σ %.1f)   [paper: 484 s, σ 13.5]\n",
		baseline.Mean, baseline.Std)
	fmt.Fprintf(opts.Out, "%6s %6s %12s %8s %10s %10s\n", "p", "T", "exec(s)", "σ", "failures", "expected")

	ps, ts := Fig16Params(opts.Quick)
	for _, t := range ts {
		for _, p := range ps {
			point, err := measure(p, t)
			if err != nil {
				return baseline, points, fmt.Errorf("fig16 p=%v T=%v: %w", p, t, err)
			}
			points = append(points, point)
			fmt.Fprintf(opts.Out, "%6.1f %6.0f %12.0f %8.1f %10.1f %10.1f\n",
				point.P, point.T, point.Mean, point.Std, point.Failures, point.Expected)
		}
	}
	return baseline, points, nil
}

func expectedFailures(p float64, nT int) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return p / (1 - p) * float64(nT)
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}
