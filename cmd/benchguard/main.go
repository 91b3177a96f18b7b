// Command benchguard enforces checked-in benchmark ceilings in CI. It
// reads `go test -bench -benchmem` output on stdin, extracts allocs/op
// for every benchmark named in the baseline file, and exits non-zero
// when a benchmark exceeds its recorded ceiling — or never ran at all.
//
// Allocation counts (unlike ns/op on shared runners) are deterministic
// per benchmark iteration, so the guard is noise-free: a failure means a
// code change put allocations back on a hot path someone deliberately
// flattened. When running with -count > 1 the minimum across runs is
// compared, which forgives one-time warmup (cache building, pool
// growth) amortised over the first run.
//
// Usage:
//
//	go test -run xxx -bench BenchmarkReduceDiamondRules -benchmem -count 2 . \
//	  | go run ./cmd/benchguard -baseline internal/bench/baseline.json
//
// A second mode validates a scraped /metrics body instead: -exposition
// runs the promlint-style checker over a saved Prometheus text file
// (the CI smoke job scrapes a live ginflow run), and -require
// fails unless every named family appears:
//
//	go run ./cmd/benchguard -exposition metrics.prom \
//	  -require ginflow_mq_published_total,ginflow_sessions_completed_total
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"

	"ginflow/internal/obs"
)

// baseline mirrors the checked-in JSON: benchmark name to ceiling.
type baseline struct {
	Note       string                 `json:"note,omitempty"`
	Benchmarks map[string]benchBounds `json:"benchmarks"`
}

// benchBounds is the recorded ceiling for one benchmark.
type benchBounds struct {
	MaxAllocsPerOp int64 `json:"max_allocs_per_op"`
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.
//
//	BenchmarkReduceDiamondRules-8   25946   95063 ns/op   62888 B/op   1156 allocs/op
//
// capturing the benchmark name (GOMAXPROCS suffix stripped) and the
// allocation count.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+\S+ ns/op\s+\S+ B/op\s+(\d+) allocs/op`)

func main() {
	baselinePath := flag.String("baseline", "", "path to the baseline JSON (required unless -exposition)")
	expoPath := flag.String("exposition", "", "validate this saved Prometheus /metrics body instead of gating benchmarks")
	require := flag.String("require", "", "comma-separated metric families the exposition must declare (-exposition only)")
	flag.Parse()
	if *expoPath != "" {
		checkExposition(*expoPath, *require)
		return
	}
	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: parse %s: %v\n", *baselinePath, err)
		os.Exit(2)
	}
	if len(base.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %s names no benchmarks\n", *baselinePath)
		os.Exit(2)
	}

	// best holds the minimum observed allocs/op per benchmark.
	best := map[string]int64{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the raw output through for the CI log
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		allocs, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		if prev, seen := best[m[1]]; !seen || allocs < prev {
			best[m[1]] = allocs
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: read stdin: %v\n", err)
		os.Exit(2)
	}

	failed := false
	for name, bounds := range base.Benchmarks {
		allocs, ran := best[name]
		switch {
		case !ran:
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s: no result on stdin (did the benchmark run?)\n", name)
			failed = true
		case allocs > bounds.MaxAllocsPerOp:
			fmt.Fprintf(os.Stderr, "benchguard: FAIL %s: %d allocs/op exceeds ceiling %d\n",
				name, allocs, bounds.MaxAllocsPerOp)
			failed = true
		default:
			fmt.Printf("benchguard: ok %s: %d allocs/op (ceiling %d)\n",
				name, allocs, bounds.MaxAllocsPerOp)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkExposition validates a scraped Prometheus text body and the
// presence of the required families, exiting non-zero on violation.
func checkExposition(path, require string) {
	body, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	if err := obs.ValidateExposition(body); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: FAIL exposition %s: %v\n", path, err)
		os.Exit(1)
	}
	text := string(body)
	failed := false
	for _, family := range strings.Split(require, ",") {
		family = strings.TrimSpace(family)
		if family == "" {
			continue
		}
		if !strings.Contains(text, "# TYPE "+family+" ") {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL exposition %s: family %s missing\n", path, family)
			failed = true
			continue
		}
		fmt.Printf("benchguard: ok exposition family %s present\n", family)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchguard: ok exposition %s valid\n", path)
}
