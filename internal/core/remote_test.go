package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/hoclflow"
	"ginflow/internal/montage"
	"ginflow/internal/mq"
	"ginflow/internal/obs"
	"ginflow/internal/transport"
	"ginflow/internal/workflow"
)

// The multi-process integration suite: the test binary re-executes
// itself as worker processes (the examples/resume self-exec pattern),
// each joining the manager's transport listener over real TCP and
// hosting a share of the session's agents. Every workload must converge
// to the same space fingerprint as its in-process run — with the agents
// in at least two separate OS processes, under socket chaos, and across
// forced mid-run disconnects.

const (
	envRemoteAddr = "GINFLOW_REMOTE_ADDR"
	envRemoteKind = "GINFLOW_REMOTE_KIND"
)

func TestMain(m *testing.M) {
	if addr := os.Getenv(envRemoteAddr); addr != "" {
		remoteWorkerMain(addr, os.Getenv(envRemoteKind))
		return
	}
	os.Exit(m.Run())
}

// remoteWorkerMain is the worker-process entry: join, announce, serve
// until the parent closes our stdin.
func remoteWorkerMain(addr, kind string) {
	n, err := transport.Join(addr, transport.NodeConfig{
		Name:     "test-worker-" + kind,
		Services: workerRegistry(kind),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	fmt.Printf("JOINED %d\n", n.NodeID())
	io.Copy(io.Discard, os.Stdin)
	n.Close()
}

// workerRegistry builds the service registry a worker of the given
// workload kind hosts — implementations cannot travel over the wire, so
// the worker process registers them itself.
func workerRegistry(kind string) *agent.Registry {
	reg := agent.NewRegistry()
	switch kind {
	case "montage":
		montage.RegisterServices(reg)
	case "adapted":
		reg.RegisterNoop(0.1, "split", "work", "merge", "workalt")
		reg.RegisterFailing("flaky", 0.1)
	case "slow":
		reg.RegisterNoop(1.0, "split", "work", "merge", "workalt")
	default: // "diamond"
		reg.RegisterNoop(0.1, "split", "work", "merge", "workalt")
	}
	return reg
}

// spawnWorkers re-executes the test binary n times as worker processes
// joined to addr, returning after every worker's JOINED announcement —
// the fleet is in place before the caller submits. Workers exit when
// the test ends (their stdin pipes close on cleanup).
func spawnWorkers(t *testing.T, addr, kind string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), envRemoteAddr+"="+addr, envRemoteKind+"="+kind)
		stdin, err := cmd.StdinPipe()
		if err != nil {
			t.Fatal(err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawn worker: %v", err)
		}
		t.Cleanup(func() {
			stdin.Close()
			cmd.Wait()
		})
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "JOINED") {
			t.Fatalf("worker %d never joined: %q (%v)", i, line, err)
		}
		go io.Copy(io.Discard, stdout)
	}
}

// remoteRun submits def on a listener-hosting manager with `workers`
// worker processes of the given kind and returns the report plus the
// converged space fingerprint.
func remoteRun(t *testing.T, def *workflow.Definition, services *agent.Registry, cfg Config, kind string, workers int) (*Report, uint64) {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spawnWorkers(t, m.ListenerAddr(), kind, workers)
	if got := m.ConnectedNodes(); got != workers {
		t.Fatalf("connected nodes = %d, want %d", got, workers)
	}
	s, err := m.Submit(context.Background(), def, services)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Wait(context.Background())
	if err != nil {
		t.Fatalf("remote run failed: %v (report %v)", err, rep)
	}
	return rep, s.space.StateFingerprint()
}

// requireSameOutcome pins the remote run to the in-process baseline:
// identical fingerprint, statuses and exit results.
func requireSameOutcome(t *testing.T, baseRep, rep *Report, baseFP, fp uint64) {
	t.Helper()
	if fp != baseFP {
		t.Errorf("remote space fingerprint %016x diverged from in-process %016x", fp, baseFP)
	}
	for task, st := range baseRep.Statuses {
		if rep.Statuses[task] != st {
			t.Errorf("task %s: remote %v, in-process %v", task, rep.Statuses[task], st)
		}
	}
	for exit, want := range baseRep.Results {
		if got := strings.Join(rep.Results[exit], "|"); got != strings.Join(want, "|") {
			t.Errorf("result[%s]: remote %q, in-process %q", exit, got, want)
		}
	}
}

func remoteBaseConfig() Config {
	return Config{
		Executor: executor.KindSSH,
		Broker:   mq.KindLog,
		Cluster:  fastCluster(8),
		Timeout:  2 * time.Minute,
	}
}

// TestRemoteDiamondMatchesInProcess runs the diamond benchmark with its
// agents spread over two separate OS processes and requires the exact
// in-process outcome.
func TestRemoteDiamondMatchesInProcess(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, false))
	services := diamondServices(nil)
	baseRep, baseFP := runWithFingerprint(t, def, services, remoteBaseConfig())
	rep, fp := remoteRun(t, def, services, remoteBaseConfig(), "diamond", 2)
	requireSameOutcome(t, baseRep, rep, baseFP, fp)
	if rep.Statuses[workflow.DiamondMergeName] != hoclflow.StatusCompleted {
		t.Fatalf("merge = %v", rep.Statuses[workflow.DiamondMergeName])
	}
	if rep.Messages == 0 {
		t.Error("no messages crossed the manager broker; agents did not run through the transport")
	}
}

// TestRemoteMontageMatchesInProcess runs the 118-task Montage workload
// (§V-D) over three worker processes.
func TestRemoteMontageMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("Montage is slow")
	}
	services := agent.NewRegistry()
	montage.RegisterServices(services)
	def := montage.Workflow()
	baseRep, baseFP := runWithFingerprint(t, def, services, remoteBaseConfig())
	rep, fp := remoteRun(t, def, services, remoteBaseConfig(), "montage", 3)
	requireSameOutcome(t, baseRep, rep, baseFP, fp)
}

// TestRemoteAdaptationMatchesInProcess runs the §V-B scenario — a
// failing mesh service triggers the on-the-fly body replacement — with
// the agents (including the replacement ones) hosted out-of-process.
func TestRemoteAdaptationMatchesInProcess(t *testing.T) {
	spec := workflow.DefaultDiamondSpec(2, 2, false)
	def := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt")
	last, _ := def.TaskByID(workflow.LastMeshTask(spec))
	last.Service = "flaky"
	services := diamondServices(nil)
	services.RegisterFailing("flaky", 0.1)

	baseRep, baseFP := runWithFingerprint(t, def, services, remoteBaseConfig())
	if len(baseRep.Adaptations) == 0 {
		t.Fatal("baseline triggered no adaptation; test is vacuous")
	}
	rep, fp := remoteRun(t, def, services, remoteBaseConfig(), "adapted", 2)
	requireSameOutcome(t, baseRep, rep, baseFP, fp)
	if strings.Join(rep.Adaptations, ",") != strings.Join(baseRep.Adaptations, ",") {
		t.Errorf("remote adaptations %v, in-process %v", rep.Adaptations, baseRep.Adaptations)
	}
}

// TestRemoteCrashesRecover runs the crash-and-respawn loop on the
// worker side: agents hosted in separate OS processes crash with
// probability p on the log broker, their worker respawns them with
// inbox replay, and the run must still reach the in-process fault-free
// outcome. The workers' crash and respawn events carry the counts.
func TestRemoteCrashesRecover(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, false))
	services := diamondServices(nil)
	baseRep, baseFP := runWithFingerprint(t, def, services, remoteBaseConfig())

	cfg := remoteBaseConfig()
	cfg.Chaos = failure.ChaosConfig{AgentCrashP: 0.5, AgentCrashAfter: 0.05}
	rep, fp := remoteRun(t, def, services, cfg, "diamond", 2)
	requireSameOutcome(t, baseRep, rep, baseFP, fp)
	if rep.Failures == 0 || rep.Failures != rep.Recoveries {
		t.Errorf("failures = %d, recoveries = %d: want equal and non-zero", rep.Failures, rep.Recoveries)
	}
}

// TestRemoteSocketChaosConverges perturbs the socket boundary — remote
// publish dispatches dropped, duplicated, delayed and reordered between
// the TCP bridge and the broker — and requires the seeded run to settle
// on the clean in-process fingerprint.
func TestRemoteSocketChaosConverges(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, false))
	services := diamondServices(nil)
	baseRep, baseFP := runWithFingerprint(t, def, services, remoteBaseConfig())

	// Duplicated publishes reach the workers' agents, whose dedup events
	// cross the wire into the report. One seed may duplicate no direct
	// message (the socket draws follow the real-time interleaving of the
	// workers' frames), so the suppressions are summed over the seeds.
	var dups int64
	for _, seed := range []int64{400, 401, 402} {
		cfg := remoteBaseConfig()
		cfg.Chaos = failure.ChaosConfig{
			Seed:           seed,
			SocketDropP:    0.10,
			SocketDupP:     0.10,
			SocketDelayP:   0.15,
			SocketReorderP: 0.05,
		}
		cfg.Retry = failure.RetryConfig{MaxAttempts: 8, BackoffBase: 0.25}
		cfg.Listen = "127.0.0.1:0"
		cfg.Metrics = obs.NewRegistry()
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		spawnWorkers(t, m.ListenerAddr(), "diamond", 2)
		s, err := m.Submit(context.Background(), def, services)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Wait(context.Background())
		if err != nil {
			t.Fatalf("seed %d: %v (report %v)", seed, err, rep)
		}
		fp := s.space.StateFingerprint()
		requireSameOutcome(t, baseRep, rep, baseFP, fp)
		if m.reg.Counter("ginflow_chaos_faults_total", "", obs.L("boundary", failure.BoundarySocket.String())).Value() == 0 {
			t.Errorf("seed %d: no socket fault ever fired; chaos run is vacuous", seed)
		}
		dups += rep.DuplicatesSuppressed
		m.Close()
	}
	if dups == 0 {
		t.Error("no duplicated delivery was suppressed on any seed: MessageDeduped did not reach the report")
	}
}

// TestRemoteReconnectResumes forces connection drops mid-run: the
// workers must reconnect under their original identities, the reliable
// link must replay what the outage swallowed, and the run must still
// land on the in-process fingerprint.
func TestRemoteReconnectResumes(t *testing.T) {
	def := workflow.Sequence(6, "work", "payload")
	services := agent.NewRegistry()
	services.RegisterNoop(1.0, "work")

	base := remoteBaseConfig()
	base.Cluster.Scale = 500 * time.Microsecond
	baseRep, baseFP := runWithFingerprint(t, def, services, base)

	cfg := base
	cfg.Listen = "127.0.0.1:0"
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spawnWorkers(t, m.ListenerAddr(), "slow", 2)
	s, err := m.Submit(context.Background(), def, services)
	if err != nil {
		t.Fatal(err)
	}
	// Sever every worker's socket a few times while the workflow runs;
	// each drop forces a full reconnect + outbox replay round.
	for i := 0; i < 3; i++ {
		select {
		case <-s.Done():
		case <-time.After(2 * time.Millisecond):
			m.server.DropConnections()
		}
	}
	rep, err := s.Wait(context.Background())
	if err != nil {
		t.Fatalf("run with forced disconnects failed: %v (report %v)", err, rep)
	}
	requireSameOutcome(t, baseRep, rep, baseFP, s.space.StateFingerprint())
	// Reconnects must resume the existing identities, not mint new ones.
	if got := m.ConnectedNodes(); got != 2 {
		t.Errorf("node count after reconnects = %d, want 2", got)
	}
}

// TestRemoteUnknownServiceFailsFast: a worker that cannot host its
// assignment (service not registered in its process) reports FAIL
// instead of READY and the session must fail promptly with the cause.
func TestRemoteUnknownServiceFailsFast(t *testing.T) {
	def := workflow.Sequence(2, "exotic", "payload")
	// The manager-side registry knows the service (submission-time
	// validation passes); the worker process does not.
	services := agent.NewRegistry()
	services.RegisterNoop(0.1, "exotic")

	cfg := remoteBaseConfig()
	cfg.Listen = "127.0.0.1:0"
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	spawnWorkers(t, m.ListenerAddr(), "diamond", 1)
	s, err := m.Submit(context.Background(), def, services)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.Wait(context.Background())
	if err == nil {
		t.Fatal("session completed although no worker hosts the service")
	}
	var nf *transport.ErrNodeFailed
	if !errors.As(err, &nf) {
		t.Fatalf("error chain misses the node failure: %v", err)
	}
	if !strings.Contains(nf.Msg, "exotic") {
		t.Errorf("failure does not name the missing service: %q", nf.Msg)
	}
	if time.Since(start) > 30*time.Second {
		t.Error("assignment failure did not preempt the session timeout")
	}
}

// TestListenRequiresBroker: a centralized manager has no broker for the
// listener to front.
func TestListenRequiresBroker(t *testing.T) {
	_, err := NewManager(Config{Executor: executor.KindCentralized, Listen: "127.0.0.1:0"})
	if !errors.Is(err, ErrNoBroker) {
		t.Fatalf("err = %v, want ErrNoBroker", err)
	}
}
