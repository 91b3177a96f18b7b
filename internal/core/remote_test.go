package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/executor"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/montage"
	"ginflow/internal/mq"
	"ginflow/internal/obs"
	"ginflow/internal/trace"
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
	// cross the wire into the report. One seed may duplicate no inbox
	// message: the socket draws follow the real-time interleaving of the
	// workers' frames, and results between co-located agents never cross
	// the socket. So the suppressions are summed over the seeds, and
	// seeds past the first three run until one has been seen. Every
	// suppression must answer an inbox message the broker received twice.
	var dups int64
	for seed := int64(400); seed < 403 || dups == 0 && seed < 410; seed++ {
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
		injected := countInboxDuplicates(m)
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
		if n := injected(); rep.DuplicatesSuppressed > n {
			t.Errorf("seed %d: %d duplicates suppressed, but the broker received only %d inbox messages twice",
				seed, rep.DuplicatesSuppressed, n)
		}
	}
	if dups == 0 {
		t.Error("no duplicated delivery was suppressed on any seed: MessageDeduped did not reach the report")
	}
}

// countInboxDuplicates observes every publish and record on m's log
// broker and returns a func reporting how many inbox messages arrived
// again after their first copy, identified by topic and SEQ header.
func countInboxDuplicates(m *Manager) func() int64 {
	var mu sync.Mutex
	seen := map[string]bool{}
	var n int64
	m.broker.(*mq.LogBroker).SetPublishObserver(func(msg mq.Message) {
		if !strings.Contains(msg.Topic, agent.DefaultTopicPrefix) || len(msg.Atoms) == 0 {
			return
		}
		origin, seq, ok := hoclflow.DecodeSeq(msg.Atoms[0])
		if !ok {
			return
		}
		key := fmt.Sprintf("%s|%s|%d", msg.Topic, origin, seq)
		mu.Lock()
		if seen[key] {
			n++
		}
		seen[key] = true
		mu.Unlock()
	})
	return func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return n
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

// TestRemoteFailedBarrierStopsWorkers: when one worker cannot build its
// share (its process lacks the service) the READY barrier fails, and
// the session stops the worker that did build its share before it gives
// up: that worker reports DONE. The failing worker holds no share and
// answers STOP at once, so the session does not wait out the DONE
// timeout.
func TestRemoteFailedBarrierStopsWorkers(t *testing.T) {
	def := workflow.Sequence(2, "exotic", "payload")
	services := agent.NewRegistry()
	services.RegisterNoop(0.1, "exotic")

	cfg := remoteBaseConfig()
	cfg.Listen = "127.0.0.1:0"
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tap := newFrameTap(t, m.ListenerAddr())
	healthy, err := transport.Join(tap.addr(), transport.NodeConfig{Name: "healthy", Services: services, PingInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	broken, err := transport.Join(m.ListenerAddr(), transport.NodeConfig{Name: "broken", Services: agent.NewRegistry(), PingInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer broken.Close()

	s, err := m.Submit(context.Background(), def, services)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.Wait(context.Background())
	var nf *transport.ErrNodeFailed
	if !errors.As(err, &nf) {
		t.Fatalf("session error %v, want the broken worker's failure", err)
	}
	if dones := tap.doneCount(); dones != 1 {
		t.Errorf("the healthy worker reported DONE %d times, want 1: its share was never stopped", dones)
	}
	if took := time.Since(start); took >= remoteDoneTimeout {
		t.Errorf("the failed barrier took %v: the session waited out the DONE timeout", took)
	}
}

// TestRemoteRecoverKillPoints recovers journaled sessions onto worker
// processes: the 3×3 diamond and the §V-B adapted 2×2 diamond run in
// process with the journal frozen at a kill point, then a Manager with
// a listener and two re-executed workers recovers each. The recovered
// agents start on the workers from the local solutions their
// assignments carry: the manager deploys no agent itself, the results
// and exit statuses are the uninterrupted run's, and no task whose RES
// was journaled invokes its service again (read from the workers'
// forwarded events).
func TestRemoteRecoverKillPoints(t *testing.T) {
	spec := workflow.DefaultDiamondSpec(2, 2, false)
	adapted := workflow.WithBodyReplacement(workflow.Diamond(spec), spec, false, "workalt")
	last, _ := adapted.TaskByID(workflow.LastMeshTask(spec))
	last.Service = "flaky"
	adaptedServices := diamondServices(nil)
	adaptedServices.RegisterFailing("flaky", 0.1)

	for _, tc := range []struct {
		name     string
		def      *workflow.Definition
		services *agent.Registry
		kind     string
		kills    []int64
	}{
		{"diamond", workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, false)), diamondServices(nil), "diamond", []int64{6, 20}},
		{"adapted", adapted, adaptedServices, "adapted", []int64{5, 14}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline, err := Run(context.Background(), tc.def, tc.services, journaledConfig("", 0).withoutJournal())
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			for _, crashAfter := range tc.kills {
				rep, journaled, m := remoteRecover(t, tc.def, tc.services, tc.kind, crashAfter)
				// Only the exits are compared: whether a task off the
				// adaptation's final path completes before the exit does
				// depends on timing.
				if !reflect.DeepEqual(rep.Results, baseline.Results) {
					t.Errorf("kill@%d: results diverged:\n got %v\nwant %v", crashAfter, rep.Results, baseline.Results)
				}
				for _, exit := range tc.def.Exits() {
					if rep.Statuses[exit] != baseline.Statuses[exit] {
						t.Errorf("kill@%d: exit %s recovered %v, want %v", crashAfter, exit, rep.Statuses[exit], baseline.Statuses[exit])
					}
				}
				assertNoReinvocation(t, rep, journaled, crashAfter)
				if len(journaled) == 0 {
					t.Errorf("kill@%d: the journal held no task state; the kill point is vacuous", crashAfter)
				}
				if n := m.reg.Counter("ginflow_agents_deployed_total", "").Value(); n != 0 {
					t.Errorf("kill@%d: the manager deployed %d agents itself; the recovered agents must run on the workers", crashAfter, n)
				}
				if n := len(rep.Events); n == 0 || rep.Agents == 0 {
					t.Errorf("kill@%d: %d forwarded events for %d agents", crashAfter, n, rep.Agents)
				}
			}
		})
	}
}

// remoteRecover runs def in process with the journal frozen after
// crashAfter records, then recovers it on a manager with a listener, a
// private metrics registry and two workers of kind. It returns the
// recovered report, the statuses the journal held at the kill point and
// the recovering manager.
func remoteRecover(t *testing.T, def *workflow.Definition, services *agent.Registry, kind string, crashAfter int64) (*Report, map[string]hoclflow.Status, *Manager) {
	t.Helper()
	dir := t.TempDir()
	ctx := context.Background()
	m1, err := NewManager(journaledConfig(dir, crashAfter))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m1.Submit(ctx, def, services)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(ctx); err != nil {
		t.Fatalf("kill@%d: first run failed: %v", crashAfter, err)
	}
	m1.Close()

	cfg := journaledConfig(dir, 0)
	cfg.Cluster.Virtual = false // a listener needs the real clock
	cfg.Listen = "127.0.0.1:0"
	cfg.Metrics = obs.NewRegistry()
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m2.Close() })
	ids, err := m2.journal.SessionIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("kill@%d: %d journaled sessions, want 1 (the kill point lies beyond the run)", crashAfter, len(ids))
	}
	journaled := journaledStatuses(t, m2.journal, ids[0])
	spawnWorkers(t, m2.ListenerAddr(), kind, 2)

	sessions, err := m2.Recover(ctx, services, SubmitTrace())
	if err != nil {
		t.Fatalf("kill@%d: recover: %v", crashAfter, err)
	}
	if len(sessions) != 1 {
		t.Fatalf("kill@%d: recovered %d sessions, want 1", crashAfter, len(sessions))
	}
	rep, err := sessions[0].Wait(ctx)
	if err != nil {
		t.Fatalf("kill@%d: recovered session failed: %v (report %v)", crashAfter, err, rep)
	}
	return rep, journaled, m2
}

// TestListenRequiresBroker: a centralized manager has no broker for the
// listener to front.
func TestListenRequiresBroker(t *testing.T) {
	_, err := NewManager(Config{Executor: executor.KindCentralized, Listen: "127.0.0.1:0"})
	if !errors.Is(err, ErrNoBroker) {
		t.Fatalf("err = %v, want ErrNoBroker", err)
	}
}

// frameTap relays one worker's connection to the manager's listener and
// tallies the frames it carries. It reads the transport's wire layout
// (internal/transport/frame.go, protocol version 8): a 4-byte big-endian
// length, a type byte, then a payload whose reliable frames start with
// a uvarint sequence number.
type frameTap struct {
	ln     net.Listener
	target string

	mu sync.Mutex
	// inboxPublishes counts the worker's PUBLISH frames to an inbox
	// topic, records its RECORD frames and logReqs its LOGREQ frames;
	// passBatches counts the manager's BATCH frames that carry a PASS;
	// dones counts the worker's DONE frames.
	inboxPublishes, records, logReqs, passBatches, dones int
}

const (
	wirePublish byte = 18
	wireBatch   byte = 19
	wireDone    byte = 25
	wireLogReq  byte = 27
	wireRecord  byte = 29
)

func newFrameTap(t *testing.T, target string) *frameTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &frameTap{ln: ln, target: target}
	t.Cleanup(func() { ln.Close() })
	go tap.serve()
	return tap
}

func (tap *frameTap) addr() string { return tap.ln.Addr().String() }

func (tap *frameTap) serve() {
	worker, err := tap.ln.Accept()
	if err != nil {
		return
	}
	manager, err := net.Dial("tcp", tap.target)
	if err != nil {
		worker.Close()
		return
	}
	go tap.relay(manager, worker, tap.fromManager)
	tap.relay(worker, manager, tap.fromWorker)
}

// relay copies frames from src to dst, showing each to look, until
// either side closes.
func (tap *frameTap) relay(src, dst net.Conn, look func(typ byte, payload []byte)) {
	defer src.Close()
	defer dst.Close()
	r := bufio.NewReader(src)
	var hdr [5]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		payload := make([]byte, binary.BigEndian.Uint32(hdr[:4])-1)
		if _, err := io.ReadFull(r, payload); err != nil {
			return
		}
		look(hdr[4], payload)
		if _, err := dst.Write(append(hdr[:], payload...)); err != nil {
			return
		}
	}
}

func (tap *frameTap) fromWorker(typ byte, payload []byte) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	switch typ {
	case wirePublish:
		_, n := binary.Uvarint(payload) // sequence
		l, m := binary.Uvarint(payload[n:])
		if topic := string(payload[n+m : n+m+int(l)]); strings.Contains(topic, "."+agent.DefaultTopicPrefix) {
			tap.inboxPublishes++
		}
	case wireRecord:
		tap.records++
	case wireLogReq:
		tap.logReqs++
	case wireDone:
		tap.dones++
	}
}

func (tap *frameTap) fromManager(typ byte, payload []byte) {
	if typ != wireBatch {
		return
	}
	off := 0
	uvarint := func() uint64 {
		v, n := binary.Uvarint(payload[off:])
		off += n
		return v
	}
	uvarint() // sequence
	uvarint() // subscription
	for count := uvarint(); count > 0; count-- {
		_, n := binary.Varint(payload[off:]) // offset
		off += n
		l := int(uvarint())
		atoms, _ := hocl.DecodeAtoms(payload[off : off+l])
		off += l
		for _, a := range atoms {
			if tp, ok := a.(hocl.Tuple); ok && len(tp) > 0 && tp[0].Equal(hoclflow.KeyPASS) {
				tap.mu.Lock()
				tap.passBatches++
				tap.mu.Unlock()
				return
			}
		}
	}
}

func (tap *frameTap) counts() (inboxPublishes, records, logReqs, passBatches int) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return tap.inboxPublishes, tap.records, tap.logReqs, tap.passBatches
}

func (tap *frameTap) doneCount() int {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return tap.dones
}

// tappedRun runs def on a listener-hosting manager with one worker
// process joined through a frameTap.
func tappedRun(t *testing.T, def *workflow.Definition, services *agent.Registry, cfg Config) (*Manager, *Session, *Report, *frameTap) {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	tap := newFrameTap(t, m.ListenerAddr())
	spawnWorkers(t, tap.addr(), "diamond", 1)
	s, err := m.Submit(context.Background(), def, services)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Wait(context.Background())
	if err != nil {
		t.Fatalf("remote run failed: %v (report %v)", err, rep)
	}
	return m, s, rep, tap
}

// TestRemoteSingleWorkerCrashesRecover: with one worker every edge is
// co-located, so every result is delivered in process and reaches the
// manager's log as a RECORD. Agents crash with p = 0.5 on the log
// broker; their respawns replay those records and the run reaches the
// in-process fault-free outcome.
func TestRemoteSingleWorkerCrashesRecover(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, false))
	services := diamondServices(nil)
	baseRep, baseFP := runWithFingerprint(t, def, services, remoteBaseConfig())

	cfg := remoteBaseConfig()
	cfg.Chaos = failure.ChaosConfig{AgentCrashP: 0.5, AgentCrashAfter: 0.05}
	_, s, rep, tap := tappedRun(t, def, services, cfg)
	requireSameOutcome(t, baseRep, rep, baseFP, s.space.StateFingerprint())
	if rep.Failures == 0 || rep.Failures != rep.Recoveries {
		t.Errorf("failures = %d, recoveries = %d: want equal and non-zero", rep.Failures, rep.Recoveries)
	}
	inboxPublishes, records, logReqs, _ := tap.counts()
	if inboxPublishes != 0 {
		t.Errorf("%d results crossed as PUBLISH; every one should be a RECORD", inboxPublishes)
	}
	if records == 0 || logReqs == 0 {
		t.Errorf("records = %d, log requests = %d: want both non-zero", records, logReqs)
	}
}

// TestRemoteRecordsColocatedResults: on one worker over the queue
// broker, a fully connected 3×3 diamond's results never come back from
// the manager, yet the manager counts each exactly once.
func TestRemoteRecordsColocatedResults(t *testing.T) {
	def := workflow.Diamond(workflow.DefaultDiamondSpec(3, 3, true))
	cfg := remoteBaseConfig()
	cfg.Broker = mq.KindQueue
	cfg.Metrics = obs.NewRegistry()
	m, s, rep, tap := tappedRun(t, def, diamondServices(nil), cfg)
	if rep.Statuses[workflow.DiamondMergeName] != hoclflow.StatusCompleted {
		t.Fatalf("merge = %v", rep.Statuses[workflow.DiamondMergeName])
	}
	inboxPublishes, records, _, passBatches := tap.counts()
	if passBatches != 0 {
		t.Errorf("the manager sent %d BATCH frames carrying a PASS", passBatches)
	}
	sent := int64(s.recorder.Count(trace.ResultSent))
	if int64(records) != sent || inboxPublishes != 0 {
		t.Errorf("worker sent %d RECORD and %d inbox PUBLISH frames for %d results", records, inboxPublishes, sent)
	}
	// The session's count less its space topic's, which the space
	// consumed in full before the report was read, is its inbox count.
	if inbox := rep.Messages - s.space.Consumed(); inbox != sent {
		t.Errorf("manager counted %d inbox messages, want one per result-sent event (%d)", inbox, sent)
	}
	if published := m.reg.Counter("ginflow_mq_published_total", "").Value(); rep.Messages != published {
		t.Errorf("Report.Messages = %d, manager published %d", rep.Messages, published)
	}
}
