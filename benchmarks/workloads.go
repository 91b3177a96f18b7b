package main

// The six workloads, and how one is set up, driven and checked. Only the
// public ginflow API is used here: a workload is what a user of the
// Manager would write.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"syscall"
	"time"

	"ginflow"
)

// The simulated platform every workload runs on: large enough for the
// 3,600 concurrent agents of session-fan (two agents per core).
const (
	clusterNodes = 100
	clusterCores = 24
)

// taskDuration is the modelled duration of a diamond task, in model
// seconds (the paper's tasks have a very low constant execution time).
const taskDuration = 2.0

var workloadNames = []string{
	"mesh-wide", "mesh-dense", "session-fan", "adapt-swap", "durable-montage", "tcp-diamond",
}

// workload is one benchmark workload: a definition, the Manager options
// it runs under, its load shape and what a correct session looks like.
type workload struct {
	name     string
	def      *ginflow.Workflow
	executor ginflow.ExecutorKind
	broker   ginflow.BrokerKind
	opts     []ginflow.Option // further Manager options

	virtual bool // discrete-event clock; else real clock at 10 µs per model second
	journal bool // durable sessions, journaled under a temporary directory
	remote  bool // agents hosted by a second OS process over loopback TCP
	fan     int  // sessions submitted back-to-back per cycle, then all awaited
	// traceCycles is the fixed work of the traced pass (about 2 s).
	traceCycles int

	wantResults     map[string][]string
	notDone         string // the one task expected not to complete ("" = none)
	wantAdaptations int
	wantRecoveries  bool
}

// newWorkload builds the named workload; toy shrinks it to a size a unit
// test runs in well under a second.
func newWorkload(name string, toy bool) (*workload, error) {
	pick := func(full, small int) int {
		if toy {
			return small
		}
		return full
	}
	diamond := func(n int, fully bool) (*ginflow.Workflow, ginflow.DiamondSpec) {
		spec := ginflow.DefaultDiamondSpec(n, n, fully)
		return ginflow.Diamond(spec), spec
	}
	w := &workload{
		name: name, executor: ginflow.ExecutorSSH, broker: ginflow.BrokerActiveMQ,
		virtual: true, fan: 1,
		wantResults: map[string][]string{"MERGE": {`"out-merge"`}},
	}
	switch name {
	case "mesh-wide":
		w.def, _ = diamond(pick(48, 4), false)
		w.traceCycles = 2
	case "mesh-dense":
		w.def, _ = diamond(pick(16, 4), true)
		w.traceCycles = pick(6, 2)
	case "session-fan":
		w.def, _ = diamond(4, false)
		w.fan = pick(200, 5)
		w.traceCycles = 1
	case "adapt-swap":
		n := pick(16, 4)
		def, spec := diamond(n, false)
		w.def = ginflow.WithBodyReplacement(def, spec, false, "workalt")
		w.notDone = fmt.Sprintf("N%d_%d", n, n) // the last mesh task raises (§V-B)
		last, _ := w.def.TaskByID(w.notDone)
		last.Service = "flaky"
		w.wantAdaptations = 1
		w.traceCycles = pick(12, 2)
	case "durable-montage":
		w.def = ginflow.Montage()
		w.executor, w.broker = ginflow.ExecutorMesos, ginflow.BrokerKafka
		w.opts = []ginflow.Option{ginflow.WithFailureInjection(0.5, 0)}
		w.journal = true
		w.wantResults = map[string][]string{"MJPEG": {`"mjpeg[1]"`}}
		w.wantRecoveries = true
		w.traceCycles = pick(40, 1)
	case "tcp-diamond":
		w.def, _ = diamond(pick(8, 3), true)
		w.virtual = false
		w.remote = true
		w.traceCycles = pick(40, 2)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// agents is the number of agents one session deploys.
func (w *workload) agents() int {
	n := len(w.def.Tasks)
	for _, a := range w.def.Adaptations {
		n += len(a.Replacement)
	}
	return n
}

// fanIn is the median number of sources over the tasks that have any.
func (w *workload) fanIn() int {
	in := map[string]int{}
	for _, t := range w.def.Tasks {
		for _, d := range t.Dst {
			in[d]++
		}
	}
	var counts []int
	for _, n := range in {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	return counts[len(counts)/2]
}

// services registers every service any workload invokes; the worker
// process registers the same set.
func services() *ginflow.ServiceRegistry {
	reg := ginflow.NewServiceRegistry()
	reg.RegisterNoop(taskDuration, "split", "work", "merge", "workalt")
	reg.RegisterFailing("flaky", taskDuration)
	ginflow.RegisterMontageServices(reg)
	return reg
}

// check is the per-session outcome check.
func (w *workload) check(rep *ginflow.Report, err error) error {
	if err != nil {
		return err
	}
	for id, st := range rep.Statuses {
		if (st == ginflow.StatusCompleted) == (id == w.notDone) {
			return fmt.Errorf("task %s is %v", id, st)
		}
	}
	if len(rep.Statuses) != w.agents() {
		return fmt.Errorf("%d task statuses, want %d", len(rep.Statuses), w.agents())
	}
	if !reflect.DeepEqual(rep.Results, w.wantResults) {
		return fmt.Errorf("results %v, want %v", rep.Results, w.wantResults)
	}
	if len(rep.Adaptations) != w.wantAdaptations {
		return fmt.Errorf("adaptations %v, want %d", rep.Adaptations, w.wantAdaptations)
	}
	if w.wantRecoveries && (rep.Failures == 0 || rep.Failures != rep.Recoveries) {
		return fmt.Errorf("%d failures, %d recoveries", rep.Failures, rep.Recoveries)
	}
	return nil
}

// instance is one set-up of a workload: a live Manager and, for
// tcp-diamond, its joined worker process.
type instance struct {
	w        *workload
	mgr      *ginflow.Manager
	metrics  *ginflow.MetricsRegistry
	services *ginflow.ServiceRegistry
	worker   *workerProc
	dir      string // journal directory, removed by stop
	newS     float64
}

// start sets the workload up: registries, Manager, worker, journal
// directory. The seed is the simulated cluster's.
func (w *workload) start(seed int64, tmpDir string) (*instance, error) {
	in := &instance{w: w, metrics: ginflow.NewMetricsRegistry(), services: services()}
	cc := ginflow.ClusterConfig{
		Nodes: clusterNodes, CoresPerNode: clusterCores, Seed: seed,
		Virtual: w.virtual, Scale: 10 * time.Microsecond,
	}
	opts := append([]ginflow.Option{
		ginflow.WithCluster(cc), ginflow.WithMetricsRegistry(in.metrics),
		ginflow.WithExecutor(w.executor), ginflow.WithBroker(w.broker),
	}, w.opts...)
	if w.journal {
		dir, err := os.MkdirTemp(tmpDir, "journal-")
		if err != nil {
			return nil, err
		}
		in.dir = dir
		opts = append(opts, ginflow.WithJournal(dir))
	}
	if w.remote {
		opts = append(opts, ginflow.WithListener("127.0.0.1:0"))
	}
	t := time.Now()
	mgr, err := ginflow.New(opts...)
	if err != nil {
		in.stop()
		return nil, err
	}
	in.newS = time.Since(t).Seconds()
	in.mgr = mgr
	if w.remote {
		if in.worker, err = startWorker(mgr); err != nil {
			in.stop()
			return nil, err
		}
	}
	return in, nil
}

// stop tears the instance down and returns how long Manager.Close took
// and what the reaped worker used.
func (in *instance) stop() (closeS float64, wu workerUsage, err error) {
	if in.worker != nil {
		wu, err = in.worker.stop()
	}
	if in.mgr != nil {
		t := time.Now()
		if cerr := in.mgr.Close(); err == nil {
			err = cerr
		}
		closeS = time.Since(t).Seconds()
	}
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
	return closeS, wu, err
}

// session is one measured session.
type session struct {
	submitted time.Time
	submitS   float64 // duration of the Submit call
	wallS     float64 // Submit call -> Wait return
	modelS    float64 // Report.ExecTime
	recovered int
	deduped   int64
}

// cycle is one closed-loop iteration: fan sessions submitted
// back-to-back, then all awaited.
type cycle struct {
	start, end time.Time // end is the start of the next cycle
	cpuS       float64   // CPU the process used in between
	sessions   []session
	tasks      int
	failed     int
	firstErr   error
}

// runCycle drives one cycle. watch, when non-nil, is called right after
// each Submit with the handle and returns the function to call once the
// session's Wait has returned (the traced pass hooks its event consumer
// in here); the traced pass also retains the session's timeline.
func (in *instance) runCycle(ctx context.Context, watch func(h *ginflow.Handle, submitted time.Time) func(waited time.Time)) cycle {
	w := in.w
	c := cycle{start: time.Now(), sessions: make([]session, w.fan)}
	handles := make([]*ginflow.Handle, w.fan)
	done := make([]func(time.Time), w.fan)
	var opts []ginflow.SubmitOption
	if watch != nil {
		opts = append(opts, ginflow.SubmitTrace())
	}
	fail := func(err error) {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	for i := range handles {
		s := &c.sessions[i]
		s.submitted = time.Now()
		h, err := in.mgr.Submit(ctx, w.def, in.services, opts...)
		s.submitS = time.Since(s.submitted).Seconds()
		if err != nil {
			fail(err)
			continue
		}
		handles[i] = h
		if watch != nil {
			done[i] = watch(h, s.submitted)
		}
	}
	for i, h := range handles {
		if h == nil {
			continue
		}
		s := &c.sessions[i]
		rep, err := h.Wait(ctx)
		waited := time.Now()
		s.wallS = waited.Sub(s.submitted).Seconds()
		if done[i] != nil {
			done[i](waited)
		}
		if err == nil && w.remote && in.mgr.ConnectedNodes() != 1 {
			err = fmt.Errorf("%d worker nodes connected, want 1", in.mgr.ConnectedNodes())
		}
		if err := w.check(rep, err); err != nil {
			fail(err)
			continue
		}
		s.modelS = rep.ExecTime
		s.recovered = rep.Recoveries
		s.deduped = rep.DuplicatesSuppressed
		c.tasks += rep.Agents
	}
	return c
}

// workerProc is the benchmark binary re-executed as a worker node
// (-worker <addr>): it joins the Manager's listener, serves until its
// stdin closes, then prints its process-wide metrics snapshot.
type workerProc struct {
	cmd   *exec.Cmd
	stdin io.Closer
	out   io.Reader
}

// workerUsage is what the parent learns from reaping the worker.
type workerUsage struct {
	cpuS    float64
	rssMB   float64
	metrics counters
}

func startWorker(mgr *ginflow.Manager) (*workerProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-worker", mgr.ListenerAddr())
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	wp := &workerProc{cmd: cmd, stdin: stdin, out: out}
	for deadline := time.Now().Add(10 * time.Second); mgr.ConnectedNodes() < 1; {
		if time.Now().After(deadline) {
			wp.stop()
			return nil, errors.New("worker never joined")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return wp, nil
}

func (wp *workerProc) stop() (workerUsage, error) {
	wp.stdin.Close()
	var wu workerUsage
	var snap []metricFamily
	decErr := json.NewDecoder(wp.out).Decode(&snap)
	err := wp.cmd.Wait()
	if err == nil {
		err = decErr
	}
	if ru, ok := wp.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		wu.cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		wu.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	wu.metrics = countersOf(snap)
	return wu, err
}

// workerMain is the -worker mode.
func workerMain(addr string) error {
	w, err := ginflow.JoinCluster(addr, services())
	if err != nil {
		return err
	}
	io.Copy(io.Discard, os.Stdin)
	if err := w.Close(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(ginflow.DefaultMetrics().Snapshot())
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}
