// Command ginflow runs a workflow on the GinFlow engine — the
// counterpart of the paper's command line interface (§IV-D), "which
// gives control over various execution options (executor, messaging
// framework, ...)".
//
// Workflows come from a JSON file (-file), from the built-in diamond
// generator (-diamond HxV) or from the built-in Montage workload
// (-montage). Services are simulated: JSON/diamond tasks run a no-op
// service of -task-duration model seconds; services listed in -fail
// raise an execution exception (driving any declared adaptation).
//
// With -n N (N > 1) the CLI exercises the long-lived Manager API: the
// workload is submitted N times concurrently to one shared engine —
// one cluster, one broker, N topic-namespaced sessions — and each
// session's report is printed as it completes.
//
// With -journal DIR sessions are durable: the engine write-ahead-logs
// each session under DIR, and a killed process leaves them resumable.
// -resume recovers and finishes whatever unfinished sessions DIR holds
// (the workload flags still select the simulated services; the
// workflows themselves are read back from the journal).
//
// Examples:
//
//	ginflow -diamond 10x10 -executor mesos -broker kafka -nodes 15
//	ginflow -file workflow.json -fail s2
//	ginflow -montage -p 0.5 -T 15
//	ginflow -diamond 6x6 -n 8
//	ginflow -diamond 8x8 -journal /var/lib/ginflow   # durable run
//	ginflow -diamond 8x8 -journal /var/lib/ginflow -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"ginflow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ginflow:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		file     = flag.String("file", "", "workflow JSON file (paper §IV-D format)")
		diamond  = flag.String("diamond", "", "built-in diamond workload, e.g. 10x10")
		fully    = flag.Bool("fully", false, "fully-connect the diamond mesh")
		montageW = flag.Bool("montage", false, "built-in 118-task Montage workload (§V-D)")

		executorKind = flag.String("executor", "ssh", "executor: ssh | mesos | ec2 | centralized")
		brokerKind   = flag.String("broker", "activemq", "broker: activemq | kafka")
		nodes        = flag.Int("nodes", 25, "simulated cluster nodes")
		clusterFile  = flag.String("cluster-file", "", "platform description file (overrides -nodes)")
		scale        = flag.Duration("scale", time.Millisecond, "real time per model second")
		timeout      = flag.Duration("timeout", 2*time.Minute, "run timeout (real time)")

		taskDuration = flag.String("task-duration", "1.0", "noop service duration (model seconds)")
		fail         = flag.String("fail", "", "comma-separated services that raise execution exceptions")

		failureP = flag.Float64("p", 0, "agent crash probability per invocation (§V-D)")
		failureT = flag.Float64("T", 0, "agent crash delay, model seconds after service start")

		parallel = flag.Int("n", 1, "concurrent submissions of the workload through one shared Manager")

		journalDir = flag.String("journal", "", "journal directory: sessions become durable and crash-resumable")
		resume     = flag.Bool("resume", false, "recover and finish the unfinished sessions in -journal instead of submitting")

		listen  = flag.String("listen", "", "transport listener address (e.g. :7410): ginflow-node workers join and host the agents out-of-process")
		workers = flag.Int("workers", 1, "with -listen, wait for this many workers to join before submitting")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics (Prometheus), /metrics.json and /debug/pprof/ on this address for the duration of the run (e.g. :9090)")
		traceOut    = flag.String("trace-out", "", "write the first session's enactment timeline as Chrome trace_event JSON to this file (implies trace collection; open in chrome://tracing or Perfetto)")

		verbose   = flag.Bool("v", false, "print per-task statuses")
		showTrace = flag.Bool("trace", false, "print the enactment timeline")
		dumpDOT   = flag.Bool("dot", false, "print the workflow as Graphviz DOT and exit")
		dumpHOCL  = flag.Bool("dump-hocl", false, "print the workflow's HOCL translation and exit")
	)
	flag.Parse()

	def, services, err := buildWorkload(*file, *diamond, *fully, *montageW, *taskDuration, *fail)
	if err != nil {
		return err
	}
	if *dumpDOT {
		fmt.Print(def.DOT())
		return nil
	}
	if *dumpHOCL {
		src, err := def.HOCLSource()
		if err != nil {
			return err
		}
		fmt.Println(src)
		return nil
	}

	clusterCfg := ginflow.ClusterConfig{Nodes: *nodes, Scale: *scale}
	if *clusterFile != "" {
		data, err := os.ReadFile(*clusterFile)
		if err != nil {
			return err
		}
		clusterCfg, err = ginflow.ParseClusterFile(data)
		if err != nil {
			return err
		}
		if clusterCfg.Scale == 0 {
			clusterCfg.Scale = *scale
		}
	}

	cfg := ginflow.Config{
		Executor:     ginflow.ExecutorKind(*executorKind),
		Broker:       ginflow.BrokerKind(*brokerKind),
		Cluster:      clusterCfg,
		Chaos:        ginflow.ChaosConfig{AgentCrashP: *failureP, AgentCrashAfter: *failureT},
		Timeout:      *timeout,
		CollectTrace: *showTrace || *traceOut != "",
	}
	cfg.Journal.Dir = *journalDir
	cfg.Listen = *listen
	cfg.MetricsAddr = *metricsAddr

	if *listen != "" && !*resume {
		return runListen(os.Stdout, def, services, cfg, *workers, *parallel, *verbose, *traceOut)
	}

	if *resume {
		if *journalDir == "" {
			return fmt.Errorf("-resume requires -journal (the directory holding the unfinished sessions)")
		}
		return runResume(os.Stdout, services, cfg, *verbose)
	}

	if *parallel > 1 {
		return runParallel(os.Stdout, def, services, cfg, *parallel, *verbose, *traceOut)
	}

	report, err := ginflow.Run(context.Background(), def, services, cfg)
	if report != nil {
		printReport(os.Stdout, report, *verbose)
		if *showTrace {
			fmt.Println("timeline:")
			for _, e := range report.Events {
				fmt.Println(" ", e)
			}
		}
		if *traceOut != "" {
			if terr := writeTraceFile(*traceOut, report.Events); terr != nil && err == nil {
				err = terr
			} else if terr == nil {
				fmt.Printf("trace:        %s (%d events; open in chrome://tracing)\n", *traceOut, len(report.Events))
			}
		}
	}
	return err
}

// writeTraceFile renders an enactment timeline as Chrome trace_event
// JSON at path.
func writeTraceFile(path string, events []ginflow.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ginflow.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runListen builds a long-lived Manager hosting a transport listener,
// prints the dial target for ginflow-node workers, waits for the asked
// fleet size, then submits the workload: the agents run in the worker
// processes, publishing and subscribing through this manager's broker
// over TCP.
func runListen(w io.Writer, def *ginflow.Workflow, services *ginflow.ServiceRegistry, cfg ginflow.Config, workers, n int, verbose bool, traceOut string) error {
	mgr, err := ginflow.New(managerOptions(cfg)...)
	if err != nil {
		return err
	}
	defer mgr.Close()

	fmt.Fprintf(w, "listening on %s — join workers with: ginflow-node -addr %s -services ...\n",
		mgr.ListenerAddr(), mgr.ListenerAddr())
	if a := mgr.MetricsAddr(); a != "" {
		fmt.Fprintf(w, "metrics on http://%s/metrics (pprof under /debug/pprof/)\n", a)
	}
	for mgr.ConnectedNodes() < workers {
		fmt.Fprintf(w, "waiting for workers: %d/%d joined\n", mgr.ConnectedNodes(), workers)
		time.Sleep(time.Second)
	}
	fmt.Fprintf(w, "%d worker(s) joined\n", mgr.ConnectedNodes())

	var firstErr error
	for i := 0; i < n; i++ {
		h, err := mgr.Submit(context.Background(), def, services)
		if err != nil {
			return err
		}
		rep, err := h.Wait(context.Background())
		if err != nil {
			fmt.Fprintf(w, "session %d: FAILED: %v\n", h.ID(), err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		fmt.Fprintf(w, "session %d: %s\n", h.ID(), rep)
		if verbose {
			printReport(w, rep, true)
		}
		if traceOut != "" && i == 0 {
			if err := writeTraceFile(traceOut, rep.Events); err == nil {
				fmt.Fprintf(w, "trace: %s (%d events)\n", traceOut, len(rep.Events))
			}
		}
	}
	return firstErr
}

// runResume recovers every unfinished session the journal directory
// holds and drives it to completion, printing each report. The workload
// flags still select the service registry — service implementations are
// Go functions and cannot be journaled; the workflows themselves come
// from the journal.
func runResume(w io.Writer, services *ginflow.ServiceRegistry, cfg ginflow.Config, verbose bool) error {
	mgr, err := ginflow.New(managerOptions(cfg)...)
	if err != nil {
		return err
	}
	defer mgr.Close()

	handles, err := mgr.Recover(context.Background(), services)
	if err != nil {
		fmt.Fprintf(w, "recover: %v\n", err)
	}
	if len(handles) == 0 {
		fmt.Fprintln(w, "no unfinished sessions in the journal")
		return err
	}
	fmt.Fprintf(w, "resuming %d session(s) from %s\n", len(handles), cfg.Journal.Dir)
	var firstErr error = err
	for _, h := range handles {
		rep, err := h.Wait(context.Background())
		if err != nil {
			fmt.Fprintf(w, "session %d: FAILED: %v\n", h.ID(), err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		fmt.Fprintf(w, "session %d: %s\n", h.ID(), rep)
		if verbose {
			printReport(w, rep, true)
		}
	}
	return firstErr
}

// managerOptions translates a flag-built Config into Manager options.
func managerOptions(cfg ginflow.Config) []ginflow.Option {
	opts := []ginflow.Option{
		ginflow.WithExecutor(cfg.Executor),
		ginflow.WithBroker(cfg.Broker),
		ginflow.WithCluster(cfg.Cluster),
		ginflow.WithFailureInjection(cfg.Chaos.AgentCrashP, cfg.Chaos.AgentCrashAfter),
		ginflow.WithTimeout(cfg.Timeout),
	}
	if cfg.CollectTrace {
		opts = append(opts, ginflow.WithTrace())
	}
	if cfg.Journal.Dir != "" {
		opts = append(opts, ginflow.WithJournal(cfg.Journal.Dir))
	}
	if cfg.Listen != "" {
		opts = append(opts, ginflow.WithListener(cfg.Listen))
	}
	if cfg.MetricsAddr != "" {
		opts = append(opts, ginflow.WithMetrics(cfg.MetricsAddr))
	}
	return opts
}

// runParallel drives n concurrent submissions of the same workload
// through one long-lived Manager, printing each session's report as it
// completes plus an aggregate line.
func runParallel(w io.Writer, def *ginflow.Workflow, services *ginflow.ServiceRegistry, cfg ginflow.Config, n int, verbose bool, traceOut string) error {
	opts := managerOptions(cfg)
	mgr, err := ginflow.New(opts...)
	if err != nil {
		return err
	}
	defer mgr.Close()
	if a := mgr.MetricsAddr(); a != "" {
		fmt.Fprintf(w, "metrics on http://%s/metrics (pprof under /debug/pprof/)\n", a)
	}

	started := time.Now()
	handles := make([]*ginflow.Handle, n)
	for i := range handles {
		h, err := mgr.Submit(context.Background(), def, services)
		if err != nil {
			return fmt.Errorf("submit %d/%d: %w", i+1, n, err)
		}
		handles[i] = h
	}
	fmt.Fprintf(w, "submitted %d concurrent sessions to one manager\n", n)

	var firstErr error
	var execSum float64
	completed := 0
	for i, h := range handles {
		rep, err := h.Wait(context.Background())
		if err != nil {
			fmt.Fprintf(w, "session %d: FAILED: %v\n", h.ID(), err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		execSum += rep.ExecTime
		completed++
		fmt.Fprintf(w, "session %d: %s\n", h.ID(), rep)
		if verbose && i == 0 {
			printReport(w, rep, true)
		}
		if traceOut != "" && i == 0 {
			if err := writeTraceFile(traceOut, rep.Events); err == nil {
				fmt.Fprintf(w, "trace: %s (%d events)\n", traceOut, len(rep.Events))
			}
		}
	}
	mean := 0.0
	if completed > 0 {
		mean = execSum / float64(completed)
	}
	fmt.Fprintf(w, "aggregate:   %d/%d sessions completed, mean exec %.1f model seconds, %.1fs wall real time\n",
		completed, n, mean, time.Since(started).Seconds())
	return firstErr
}

func buildWorkload(file, diamond string, fully, montageW bool, taskDuration, fail string) (*ginflow.Workflow, *ginflow.ServiceRegistry, error) {
	services := ginflow.NewServiceRegistry()
	var def *ginflow.Workflow

	switch {
	case montageW:
		def = ginflow.Montage()
		ginflow.RegisterMontageServices(services)
	case diamond != "":
		var h, v int
		if _, err := fmt.Sscanf(diamond, "%dx%d", &h, &v); err != nil || h < 1 || v < 1 {
			return nil, nil, fmt.Errorf("bad -diamond %q (want HxV, e.g. 10x10)", diamond)
		}
		def = ginflow.Diamond(ginflow.DefaultDiamondSpec(h, v, fully))
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, err
		}
		def, err = ginflow.FromJSON(data)
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("one of -file, -diamond or -montage is required")
	}

	if !montageW {
		var dur float64
		if _, err := fmt.Sscanf(taskDuration, "%f", &dur); err != nil {
			return nil, nil, fmt.Errorf("bad -task-duration %q", taskDuration)
		}
		failing := map[string]bool{}
		for _, s := range strings.Split(fail, ",") {
			if s = strings.TrimSpace(s); s != "" {
				failing[s] = true
			}
		}
		seen := map[string]bool{}
		register := func(name string) {
			if name == "" || seen[name] {
				return
			}
			seen[name] = true
			if failing[name] {
				services.RegisterFailing(name, dur)
			} else {
				services.RegisterNoop(dur, name)
			}
		}
		for _, t := range def.Tasks {
			register(t.Service)
		}
		for _, a := range def.Adaptations {
			for _, r := range a.Replacement {
				register(r.Service)
			}
		}
	}
	return def, services, nil
}

func printReport(w io.Writer, r *ginflow.Report, verbose bool) {
	fmt.Fprintf(w, "workflow:     %s\n", r.Workflow)
	fmt.Fprintf(w, "executor:     %s   broker: %s   nodes: %d\n", r.Executor, r.Broker, r.Nodes)
	fmt.Fprintf(w, "tasks:        %d   agents: %d\n", r.Tasks, r.Agents)
	fmt.Fprintf(w, "deploy time:  %.1f model seconds\n", r.DeployTime)
	fmt.Fprintf(w, "exec time:    %.1f model seconds\n", r.ExecTime)
	fmt.Fprintf(w, "messages:     %d\n", r.Messages)
	if r.Failures > 0 || r.Recoveries > 0 {
		fmt.Fprintf(w, "failures:     %d   recoveries: %d\n", r.Failures, r.Recoveries)
	}
	if len(r.Adaptations) > 0 {
		fmt.Fprintf(w, "adaptations:  %s\n", strings.Join(r.Adaptations, ", "))
	}
	exits := make([]string, 0, len(r.Results))
	for task := range r.Results {
		exits = append(exits, task)
	}
	sort.Strings(exits)
	for _, task := range exits {
		fmt.Fprintf(w, "result[%s]: %s\n", task, strings.Join(r.Results[task], ", "))
	}
	if verbose {
		tasks := make([]string, 0, len(r.Statuses))
		for t := range r.Statuses {
			tasks = append(tasks, t)
		}
		sort.Strings(tasks)
		fmt.Fprintln(w, "statuses:")
		for _, t := range tasks {
			fmt.Fprintf(w, "  %-16s %s\n", t, r.Statuses[t])
		}
	}
}
