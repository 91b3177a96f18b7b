// Command benchmarks is GinFlow's benchmark: six CPU-bound workloads
// driven through the public Manager API, six end-to-end metrics, and a
// per-layer table measured from outside the program. BENCHMARK.json at
// the repository root declares the workloads, the metrics, their
// direction and the bound by which each may worsen; README.md explains
// them.
//
//	bash benchmarks/run.sh -workload mesh-dense -seed 1 -seconds 10 -trace 0
//	bash benchmarks/run.sh -workload all -seed 1 -out results.json
//	bash benchmarks/run.sh -compare a.json b.json
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart is where setup_s starts counting.
var processStart = time.Now()

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose result was printed but failed the
// outcome check.
var errIncorrect = errors.New("a session failed its outcome check")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmarks", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run: one of the six names, or all")
		seed      = fs.Int64("seed", 1, "seed of the simulated cluster (timing jitter, fault injection)")
		seconds   = fs.Float64("seconds", 10, "how long the measured phase runs")
		trace     = fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead")
		out       = fs.String("out", "", "with -workload all: file the collected results are written to")
		compare   = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		worker    = fs.String("worker", "", "internal: join the Manager at this address as a worker node")
		setupOnly = fs.Bool("setup-only", false, "internal: set the workload up, print the set-up seconds, exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *worker != "" {
		return workerMain(*worker)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(root, fs.Arg(0), fs.Arg(1), stdout)
	}
	if *name == "all" {
		return runAll(root, *seed, *seconds, *trace, *out, stdout)
	}
	w, err := newWorkload(*name, false)
	if err != nil {
		return err
	}
	tmpDir := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return err
	}
	if *setupOnly {
		return setupOnlyMain(w, *seed, tmpDir)
	}
	var res result
	if *trace == 0 {
		res, err = endToEnd(w, *seed, *seconds, tmpDir)
	} else {
		res, err = perLayer(w, *seed, *seconds, tmpDir, filepath.Join(root, ".bench_build", "out"))
	}
	if err != nil {
		return err
	}
	if err := printResult(stdout, w.name, res); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// printResult prints every metric by name with its unit, then the
// result object on the last line.
func printResult(w io.Writer, workload string, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s: %d sessions attempted, %d failed\n", workload, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the checkout root, where build outputs and traces go.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}
