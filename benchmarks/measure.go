package main

// The untraced pass: set-up, a closed loop of measured cycles for a time
// budget, and the end-to-end metrics computed from them.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupSamples is how many fresh processes set the workload up; setup_s
// is their median. Fresh processes, because costs paid once per process
// (lazy initialisation, compiled-rule caches) belong to set-up and would
// vanish from a second set-up in the same process.
const setupSamples = 3

// setUp brings the workload to the point where the first measured
// session can be submitted: Manager (and worker, journal directory)
// started and one discarded warm-up cycle run.
func setUp(w *workload, seed int64, tmpDir string) (*instance, error) {
	in, err := w.start(seed, tmpDir)
	if err != nil {
		return nil, err
	}
	if c := in.runCycle(context.Background(), nil); c.failed > 0 {
		in.stop()
		return nil, fmt.Errorf("warm-up: %w", c.firstErr)
	}
	return in, nil
}

// setupOnlyMain is the -setup-only mode: set up, print the seconds from
// process start to ready, tear down.
func setupOnlyMain(w *workload, seed int64, tmpDir string) error {
	in, err := setUp(w, seed, tmpDir)
	if err != nil {
		return err
	}
	ready := time.Since(processStart).Seconds()
	if _, _, err := in.stop(); err != nil {
		return err
	}
	fmt.Println(ready)
	return nil
}

// setupInFreshProcess re-executes the binary in -setup-only mode and
// returns the set-up time it reports.
func setupInFreshProcess(w *workload, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	return strconv.ParseFloat(string(bytes.TrimSpace(out)), 64)
}

// measured is what the untraced pass observed.
type measured struct {
	cycles  []cycle
	cpuS    float64  // process CPU over the cycles, worker's share added
	watch   *sampler // resident set every 5 ms and at each cycle end, goroutine and heap peaks
	worker  workerUsage
	closeS  float64
	newS    float64
	elapsed float64
}

func (m *measured) sessions() (all []session, tasks, failed int, firstErr error) {
	for _, c := range m.cycles {
		all = append(all, c.sessions...)
		tasks += c.tasks
		failed += c.failed
		if firstErr == nil {
			firstErr = c.firstErr
		}
	}
	return all, tasks, failed, firstErr
}

// runCycles drives cycles on a set-up instance until enough() says stop,
// then tears the instance down. The CPU of a worker process is known only
// once it is reaped, for its whole life; the share charged to the
// measured cycles is proportional to their number (the warm-up is the
// one cycle outside them).
func runCycles(in *instance, enough func(done int, elapsed time.Duration) bool) (*measured, error) {
	m := &measured{newS: in.newS}
	m.watch = startSampler()
	cpu := selfCPU()
	start := time.Now()
	for !enough(len(m.cycles), time.Since(start)) {
		c := in.runCycle(context.Background(), nil)
		m.watch.sample()
		// A cycle's interval runs to the start of the next one: Submit
		// and session teardown between sessions are inside.
		now := selfCPU()
		c.end, c.cpuS = time.Now(), now-cpu
		m.cpuS += c.cpuS
		cpu = now
		m.cycles = append(m.cycles, c)
	}
	m.elapsed = time.Since(start).Seconds()
	m.watch.finish()
	var err error
	m.closeS, m.worker, err = in.stop()
	n := float64(len(m.cycles))
	m.worker.cpuS *= n / (n + 1)
	m.cpuS += m.worker.cpuS
	return m, err
}

// fixedCycles stops runCycles after n cycles.
func fixedCycles(n int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done >= n }
}

// endToEnd runs the untraced pass for the given seconds and returns the
// end-to-end metrics.
func endToEnd(w *workload, seed int64, seconds float64, tmpDir string) (result, error) {
	in, err := setUp(w, seed, tmpDir)
	if err != nil {
		return result{}, err
	}
	setups := []float64{time.Since(processStart).Seconds()}
	for len(setups) < setupSamples {
		s, err := setupInFreshProcess(w, seed)
		if err != nil {
			in.stop()
			return result{}, err
		}
		setups = append(setups, s)
	}
	budget := time.Duration(seconds * float64(time.Second))
	m, err := runCycles(in, func(_ int, elapsed time.Duration) bool { return elapsed >= budget })
	if err != nil {
		return result{}, err
	}
	return endToEndMetrics(m, setups)
}

// endToEndMetrics computes the end-to-end metrics of an untraced pass.
func endToEndMetrics(m *measured, setups []float64) (result, error) {
	sessions, tasks, failed, firstErr := m.sessions()
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "first failed session:", firstErr)
	}
	if tasks == 0 {
		return result{}, fmt.Errorf("no session completed: %v", firstErr)
	}
	blocks := m.blocks()
	per := func(f func(b block) float64) []float64 {
		vals := make([]float64, len(blocks))
		for i, b := range blocks {
			vals[i] = f(b)
		}
		return vals
	}
	workerCPU := m.worker.cpuS / float64(tasks) * 1000
	return result{
		Correct:   failed == 0,
		Attempted: len(sessions),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":            {median(setups), "s"},
			"tasks_per_s":        {secondBest(per(func(b block) float64 { return float64(b.tasks()) / b.wallS() }), true), "tasks/s"},
			"session_wall_s_p50": {secondBest(per(func(b block) float64 { return quantile(b.walls(), 0.5) }), false), "s"},
			"session_wall_s_p95": {secondBest(per(func(b block) float64 { return quantile(b.walls(), 0.95) }), false), "s"},
			"cpu_s_per_ktask":    {secondBest(per(func(b block) float64 { return b.cpuS() / float64(b.tasks()) * 1000 }), false) + workerCPU, "s"},
			"peak_rss_mb":        {median(per(func(b block) float64 { return b.peak(m.watch.rss) })) + m.worker.rssMB, "MiB"},
		},
	}, nil
}

// A block is a run of consecutive measured cycles. The measured phase is
// cut into five blocks of equal cycle count and every end-to-end figure
// is computed per block. The benchmark runs on shared machines, where
// interference — a neighbour on the sibling hyperthread, a burst of host
// work — only ever slows a block down, while a slower program slows all
// five: the time-based figures therefore report the second-best block,
// which stays put as long as two blocks ran undisturbed. Resident memory
// does not depend on the neighbours; its figure is the median block's.
type block []cycle

// blocks cuts the measured cycles into five blocks (leftover cycles at
// the end dropped; fewer than five cycles make one block each).
func (m *measured) blocks() []block {
	n, per := 5, len(m.cycles)/5
	if per == 0 {
		n, per = len(m.cycles), 1
	}
	out := make([]block, n)
	for b := range out {
		out[b] = m.cycles[b*per : (b+1)*per]
	}
	return out
}

func (b block) wallS() float64 { return b[len(b)-1].end.Sub(b[0].start).Seconds() }

func (b block) tasks() (n int) {
	for _, c := range b {
		n += c.tasks
	}
	return n
}

func (b block) cpuS() (s float64) {
	for _, c := range b {
		s += c.cpuS
	}
	return s
}

// walls is the Submit -> Wait wall time of every session of the block.
func (b block) walls() (walls []float64) {
	for _, c := range b {
		for _, s := range c.sessions {
			walls = append(walls, s.wallS)
		}
	}
	return walls
}

// peak is the largest resident-set sample taken during the block.
func (b block) peak(samples []rssSample) (mb float64) {
	from, to := b[0].start, b[len(b)-1].end
	for _, s := range samples {
		if !s.at.Before(from) && !s.at.After(to) && s.mb > mb {
			mb = s.mb
		}
	}
	return mb
}

// secondBest returns the second-best of the block values (the only one,
// if there is one block).
func secondBest(vals []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if higherIsBetter {
		slices.Reverse(s)
	}
	return s[min(1, len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by the nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

// selfCPU is the process's user + system CPU seconds so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// rssSample is the process's resident set at one instant.
type rssSample struct {
	at time.Time
	mb float64
}

// sampler watches the process from a goroutine of its own while cycles
// run: every 5 ms it records the resident set and keeps the peaks of the
// goroutine count and of the heap in use.
type sampler struct {
	mu         sync.Mutex
	rss        []rssSample
	goroutines int
	heapMB     float64
	stop, done chan struct{}
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	heap := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(heap)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rss = append(s.rss, rssSample{time.Now(), residentMB()})
	s.goroutines = max(s.goroutines, runtime.NumGoroutine())
	s.heapMB = max(s.heapMB, float64(heap[0].Value.Uint64()+heap[1].Value.Uint64())/(1<<20))
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// residentMB is the process's resident set now (/proc/self/statm counts
// it in pages).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// bytesWritten is the bytes the process has passed to write calls.
func bytesWritten() float64 { return procField("/proc/self/io", "wchar:") }

// procField returns the number following key in a /proc key-value file.
func procField(path, key string) float64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}
