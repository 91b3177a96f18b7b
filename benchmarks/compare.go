package main

// A whole set of runs (-workload all) and the comparator of two sets
// (-compare): the tools for an A/A check of the benchmark itself and for
// a parent-versus-change review by hand.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// resultSet is the file -workload all writes.
type resultSet struct {
	Commit     string                 `json:"commit"`
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	NumCPU     int                    `json:"nproc"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	TotalS     float64                `json:"total_s"`
	Workloads  map[string]workloadRun `json:"workloads"`
}

// workloadRun is one workload's runs in a set. Attempted in each result
// is the number of sessions behind its percentiles.
type workloadRun struct {
	ElapsedS float64 `json:"elapsed_s"`
	EndToEnd result  `json:"end_to_end"`
	PerLayer *result `json:"per_layer,omitempty"`
}

// runAll runs every workload in a fresh process each, so peak RSS and
// collector state never carry over, and collects the results.
func runAll(root string, seed int64, seconds float64, trace int, out string, stdout io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Workloads: map[string]workloadRun{},
	}
	if rev, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		set.Commit = strings.TrimSpace(string(rev))
	}
	one := func(name string, trace int) (result, error) {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		runErr := cmd.Run()
		var res result
		if err := json.Unmarshal(lastLine(buf.Bytes()), &res); err != nil {
			return res, fmt.Errorf("%s: no result (%v)", name, runErr)
		}
		return res, nil
	}
	start := time.Now()
	incorrect := false
	for _, name := range workloadNames {
		t := time.Now()
		var run workloadRun
		if run.EndToEnd, err = one(name, 0); err != nil {
			return err
		}
		incorrect = incorrect || !run.EndToEnd.Correct
		if trace != 0 {
			res, err := one(name, 1)
			if err != nil {
				return err
			}
			run.PerLayer = &res
			incorrect = incorrect || !res.Correct
		}
		run.ElapsedS = time.Since(t).Seconds()
		set.Workloads[name] = run
	}
	set.TotalS = time.Since(start).Seconds()
	if out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// compareFiles prints, per workload and end-to-end metric, both values,
// how much worse b is than a as a share of a, and the metric's bound; it
// fails when a difference exceeds its bound or any session failed.
func compareFiles(root, aPath, bPath string, stdout io.Writer) error {
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	load := func(path string) (*resultSet, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var set resultSet
		return &set, json.Unmarshal(data, &set)
	}
	a, err := load(aPath)
	if err != nil {
		return err
	}
	b, err := load(bPath)
	if err != nil {
		return err
	}
	bad := 0
	fmt.Fprintf(stdout, "%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, wl := range sp.Workloads {
		ra, rb := a.Workloads[wl.Name].EndToEnd, b.Workloads[wl.Name].EndToEnd
		if ra.Failed > 0 || rb.Failed > 0 || !ra.Correct || !rb.Correct {
			fmt.Fprintf(stdout, "%-16s sessions failed: a %d/%d, b %d/%d\n", wl.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			bad++
		}
		for _, ms := range sp.EndToEnd {
			va, vb := ra.Metrics[ms.Name].Value, rb.Metrics[ms.Name].Value
			worse := (vb - va) / va
			if ms.Better == "higher" {
				worse = -worse
			}
			flag := ""
			if !(worse <= ms.Bound) { // also catches a missing (NaN) value
				flag = "  EXCEEDS"
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n",
				wl.Name, ms.Name, va, vb, worse*100, ms.Bound*100, flag)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons outside their bound", bad)
	}
	return nil
}
