package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/mq"
	"ginflow/internal/space"
	"ginflow/internal/trace"
	"ginflow/internal/workflow"
)

// newTestServer starts a listener on a loopback port over a fast-clock
// replayable broker.
func newTestServer(t *testing.T, chaos *failure.Schedule) (*Server, *mq.LogBroker, *cluster.Clock) {
	t.Helper()
	clock := cluster.NewClock(50 * time.Microsecond)
	br := mq.NewLogBrokerSharded(clock, 0.001, 4)
	if chaos != nil {
		chaos.SetSleeper(clock.Sleep)
	}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Broker: br, Chaos: chaos})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		br.Close()
	})
	return srv, br, clock
}

func dialTest(t *testing.T, srv *Server, name string) *RemoteBroker {
	t.Helper()
	rb, err := Dial(srv.Addr(), DialConfig{Name: name, PingInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { rb.Close() })
	return rb
}

// feed reads a subscription one message at a time: Next hands over
// batches, so what one recv does not return waits for the following one.
type feed struct {
	sub     *mq.Subscription
	pending []mq.Message
}

func subscribe(t *testing.T, b mq.PubSub, topic string) *feed {
	t.Helper()
	sub, err := b.Subscribe(topic)
	if err != nil {
		t.Fatal(err)
	}
	return &feed{sub: sub}
}

func (f *feed) recv(t *testing.T, timeout time.Duration) mq.Message {
	t.Helper()
	if len(f.pending) == 0 {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		batch, err := f.sub.Next(ctx)
		if err != nil {
			t.Fatalf("waiting for message: %v", err)
		}
		f.pending = batch
	}
	m := f.pending[0]
	f.pending = f.pending[1:]
	return m
}

// strAtoms wraps an opaque test payload as a one-string message body;
// strOf reads it back.
func strAtoms(s string) []hocl.Atom { return []hocl.Atom{hocl.Str(s)} }

func strOf(m mq.Message) string {
	if len(m.Atoms) != 1 {
		return fmt.Sprintf("<%d atoms>", len(m.Atoms))
	}
	s, _ := m.Atoms[0].(hocl.Str)
	return string(s)
}

func TestHandshakeAssignsNodeIDs(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	a := dialTest(t, srv, "a")
	b := dialTest(t, srv, "b")
	if a.NodeID() == 0 || b.NodeID() == 0 || a.NodeID() == b.NodeID() {
		t.Fatalf("bad identities: %d and %d", a.NodeID(), b.NodeID())
	}
	if srv.NodeCount() != 2 {
		t.Fatalf("NodeCount = %d, want 2", srv.NodeCount())
	}
}

// TestHandshakeRefusesOtherVersion: a peer speaking another protocol
// version is turned away at the handshake, on either side, before any
// message frame could be mis-read.
func TestHandshakeRefusesOtherVersion(t *testing.T) {
	const old = 2 // version 2 sent trace events as JSON

	// Server side: an old HELLO gets the connection closed, no identity.
	srv, _, _ := newTestServer(t, nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, fHello, encodeHello(helloFrame{version: old, name: "old"})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := readFrame(conn); err == nil {
		t.Fatalf("old HELLO answered with frame type %d; want the connection closed", typ)
	}
	if srv.NodeCount() != 0 {
		t.Fatalf("old HELLO was assigned an identity: %d nodes", srv.NodeCount())
	}

	// Client side: an old WELCOME fails Dial.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		if typ, _, err := readFrame(c); err != nil || typ != fHello {
			return
		}
		_ = writeFrame(c, fWelcome, encodeWelcome(welcomeFrame{version: old, nodeID: 1}))
		// Hold the socket open until the client hangs up, so the error
		// it reports is the version check and not a reset.
		_, _, _ = readFrame(c)
	}()
	rb, err := Dial(ln.Addr().String(), DialConfig{Name: "new"})
	if err == nil {
		rb.Close()
		t.Fatal("Dial accepted an old WELCOME")
	}
}

func TestRemotePublishReachesBroker(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "pub")
	sub := subscribe(t, br, "sa.t")
	if err := rb.PublishAtoms("sa.t", strAtoms("hello")); err != nil {
		t.Fatal(err)
	}
	if m := sub.recv(t, 5*time.Second); strOf(m) != "hello" {
		t.Fatalf("got %+v", m)
	}
	if err := rb.PublishAtoms("sa.t", []hocl.Atom{hocl.Str("res"), hocl.Int(7)}); err != nil {
		t.Fatal(err)
	}
	m := sub.recv(t, 5*time.Second)
	if len(m.Atoms) != 2 || !m.Atoms[0].Equal(hocl.Str("res")) || !m.Atoms[1].Equal(hocl.Int(7)) {
		t.Fatalf("two-atom publish arrived as %+v", m)
	}
	if got := br.PublishedPrefix("sa."); got != 2 {
		t.Fatalf("serving broker counted %d publishes, want 2", got)
	}
}

func TestRemoteSubscribeReceives(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "sub")
	sub := subscribe(t, rb, "sa.x")
	if err := br.PublishAtoms("sa.x", strAtoms("one")); err != nil {
		t.Fatal(err)
	}
	if err := br.PublishAtoms("sa.x", []hocl.Atom{hocl.Int(2)}); err != nil {
		t.Fatal(err)
	}
	m1 := sub.recv(t, 5*time.Second)
	if m1.Topic != "sa.x" || strOf(m1) != "one" {
		t.Fatalf("first: %+v", m1)
	}
	m2 := sub.recv(t, 5*time.Second)
	if len(m2.Atoms) != 1 || !m2.Atoms[0].Equal(hocl.Int(2)) {
		t.Fatalf("second: %+v", m2)
	}
	// Cancelling unsubscribes remotely; later publishes go nowhere.
	sub.sub.Cancel()
}

// TestRemoteClientPublishCrossesSocket: a generic client that publishes
// to a topic it subscribes to itself still goes through the serving
// broker, which counts and retains the publish and sends it back in a
// BATCH. Only a node session, which knows where tasks are placed,
// delivers in process.
func TestRemoteClientPublishCrossesSocket(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "self")
	sub := subscribe(t, rb, "wf1.sa.T1")
	if err := rb.PublishAtoms("wf1.sa.T1", strAtoms("echo")); err != nil {
		t.Fatal(err)
	}
	m := sub.recv(t, 5*time.Second)
	// A BATCH carries the log broker's offset; a push in process would
	// carry -1.
	if strOf(m) != "echo" || m.Offset != 0 {
		t.Fatalf("got %+v, want the message back from the broker at offset 0", m)
	}
	if got := br.PublishedPrefix("wf1."); got != 1 {
		t.Fatalf("serving broker counted %d publishes, want 1", got)
	}
	if log, _ := br.Log("wf1.sa.T1"); len(log) != 1 {
		t.Fatalf("serving broker retained %d messages, want 1", len(log))
	}
}

func TestReconnectResumesBothDirections(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "rec")
	sub := subscribe(t, rb, "sa.r")
	if err := br.PublishAtoms("sa.r", strAtoms("m1")); err != nil {
		t.Fatal(err)
	}
	if m := sub.recv(t, 5*time.Second); strOf(m) != "m1" {
		t.Fatalf("pre-drop: %+v", m)
	}

	local := subscribe(t, br, "sa.c")
	srv.DropNode(rb.NodeID())
	// Traffic during the outage queues on both sides' outboxes.
	for i := 2; i <= 4; i++ {
		if err := br.PublishAtoms("sa.r", strAtoms(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := rb.PublishAtoms("sa.c", strAtoms("c1")); err != nil {
		t.Fatal(err)
	}

	seen := map[string]int{}
	for i := 0; i < 3; i++ {
		seen[strOf(sub.recv(t, 10*time.Second))]++
	}
	for i := 2; i <= 4; i++ {
		if k := fmt.Sprintf("m%d", i); seen[k] != 1 {
			t.Fatalf("message %s seen %d times (%v)", k, seen[k], seen)
		}
	}
	if m := local.recv(t, 10*time.Second); strOf(m) != "c1" {
		t.Fatalf("client publish during outage: %+v", m)
	}
	if srv.NodeCount() != 1 {
		t.Fatalf("reconnect created a new identity: %d nodes", srv.NodeCount())
	}
}

func TestLogRoundTrip(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "log")
	if err := br.PublishAtoms("sa.log", strAtoms("zero")); err != nil {
		t.Fatal(err)
	}
	if err := br.PublishAtoms("sa.log", []hocl.Atom{hocl.Str("one")}); err != nil {
		t.Fatal(err)
	}
	msgs, err := rb.Log("sa.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("Log returned %d messages, want 2", len(msgs))
	}
	if strOf(msgs[0]) != "zero" || msgs[0].Topic != "sa.log" || msgs[0].Offset != 0 {
		t.Fatalf("first: %+v", msgs[0])
	}
	if strOf(msgs[1]) != "one" || msgs[1].Offset != 1 {
		t.Fatalf("second: %+v", msgs[1])
	}
}

// TestLogFailsWhenClosed: a Log round trip cut short by Close reports
// mq.ErrClosed, not an empty history, and a respawned agent whose inbox
// replay fails returns that error from Run instead of starting over
// from the pristine template.
func TestLogFailsWhenClosed(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "log-close")
	specs, err := workflow.Sequence(1, "s", "in").TranslateAgents()
	if err != nil {
		t.Fatal(err)
	}
	a := agent.New(agent.Config{
		Spec: specs[0], Broker: rb, Cluster: cluster.New(cluster.Config{Nodes: 1}),
		Services: agent.NewRegistry(), Incarnation: 1,
	})
	if err := a.Subscribe(); err != nil {
		t.Fatal(err)
	}
	srv.Close() // from here on, nobody answers a log request

	errc := make(chan error, 1)
	go func() {
		_, err := rb.Log("sa.T1")
		errc <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		rb.mu.Lock()
		pending := len(rb.logWaits)
		rb.mu.Unlock()
		if pending > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("log request never became pending")
		}
	}
	rb.Close()
	if err := <-errc; !errors.Is(err, mq.ErrClosed) {
		t.Fatalf("pending Log after Close: %v, want mq.ErrClosed", err)
	}
	if err := a.Run(context.Background()); !errors.Is(err, mq.ErrClosed) {
		t.Fatalf("respawned agent Run: %v, want its replay's mq.ErrClosed", err)
	}
}

func TestSocketChaosLosesNothing(t *testing.T) {
	chaos := failure.NewSchedule(failure.ChaosConfig{
		Seed:           7,
		SocketDropP:    0.15,
		SocketDupP:     0.15,
		SocketDelayP:   0.2,
		SocketReorderP: 0.1,
	})
	srv, br, _ := newTestServer(t, chaos)
	rb := dialTest(t, srv, "chaos")
	sub, err := br.Subscribe("sa.chaos")
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		if err := rb.PublishAtoms("sa.chaos", strAtoms(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The socket boundary is at-least-once: every distinct payload must
	// land, duplicates permitted (agents dedup above this layer).
	seen := map[string]bool{}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for len(seen) < n {
		batch, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("only %d/%d distinct payloads arrived under chaos: %v", len(seen), n, err)
		}
		for _, m := range batch {
			seen[strOf(m)] = true
		}
	}
	if chaos.Faults() == 0 {
		t.Fatal("chaos schedule drew no faults; the hook is not wired")
	}
}

// TestNodeRunsAssignedSession drives the full worker protocol in one
// process: assign a two-task sequence, barrier on READY, start, watch
// the space converge, stop, and collect the DONE reports. The worker's
// events reach the Event hook before WaitDone returns.
func TestNodeRunsAssignedSession(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)

	reg := agent.NewRegistry()
	reg.RegisterNoop(0.01, "s")
	node, err := Join(srv.Addr(), NodeConfig{Name: "w1", Services: reg})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer node.Close()

	def := workflow.Sequence(2, "s", "in")
	blob, err := def.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		kinds  = map[string]int{}
		failed error
	)
	rs, err := srv.StartRemote(1, map[uint64]Assignment{
		node.NodeID(): {
			SpaceTopic:  "wt.space",
			TopicPrefix: "wt.sa.",
			Workflow:    blob,
			Tasks:       []string{"S1", "S2"},
			ScaleNS:     int64(50 * time.Microsecond),
		},
	}, SessionHooks{
		Event: func(e NodeEvent) {
			mu.Lock()
			kinds[e.Kind]++
			mu.Unlock()
		},
		Fail: func(err error) {
			mu.Lock()
			failed = err
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("start remote: %v", err)
	}
	defer rs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rs.WaitReady(ctx); err != nil {
		t.Fatalf("ready: %v", err)
	}

	// Attach before START, as a session does: a status push published
	// before the space subscribes is lost.
	sp := space.New()
	if err := sp.Attach(br, "wt.space"); err != nil {
		t.Fatal(err)
	}
	spCtx, spCancel := context.WithCancel(context.Background())
	defer spCancel()
	go sp.Serve(spCtx, br, "wt.space")

	rs.Start()
	if err := sp.WaitCompleted(ctx, []string{"S1", "S2"}); err != nil {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("convergence: %v (worker failure: %v)", err, failed)
	}
	rs.Stop()
	if err := rs.WaitDone(ctx); err != nil {
		t.Fatalf("done: %v", err)
	}
	mu.Lock()
	if kinds[string(trace.TaskCompleted)] != 2 || kinds[string(trace.AgentCrashed)] != 0 || failed != nil {
		t.Fatalf("unexpected reports: events %v, failure %v", kinds, failed)
	}
	mu.Unlock()
	if sp.StateFingerprint() == 0 {
		t.Fatal("space fingerprint is zero after convergence")
	}
}

// TestNodeLaunchWaitsForNoAck: a worker's build queues the SUBSCRIBE of
// every agent and sends READY behind them without waiting for any
// acknowledgement; READY, dispatched after them in order, is the
// barrier. A relay between the worker and the server holds back every
// ACK from the server until READY has passed; a build that waited for
// an ACK would stall behind it.
func TestNodeLaunchWaitsForNoAck(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	const tasks = 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ready := make(chan struct{})
	heldOut := make(chan bool, 1) // whether an ACK was held in vain
	go func() {
		worker, err := ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			worker.Close()
			return
		}
		defer worker.Close()
		defer server.Close()
		subs := 0 // only the worker-to-server relay touches it
		go relayFrames(worker, server, func(typ byte) {
			switch typ {
			case fSubscribe:
				subs++
			case fReady:
				if subs != tasks {
					t.Errorf("READY followed %d SUBSCRIBE frames, want %d", subs, tasks)
				}
				close(ready)
			}
		})
		first := true
		relayFrames(server, worker, func(typ byte) {
			if typ != fAck || !first {
				return
			}
			first = false
			select {
			case <-ready:
				heldOut <- false
			case <-time.After(2 * time.Second):
				heldOut <- true
			}
		})
	}()

	reg := agent.NewRegistry()
	reg.RegisterNoop(0.01, "s")
	node, err := Join(ln.Addr().String(), NodeConfig{Name: "w1", Services: reg, PingInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	blob, err := workflow.Sequence(tasks, "s", "in").JSON()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, tasks)
	for i := range names {
		names[i] = fmt.Sprintf("S%d", i+1)
	}
	rs, err := srv.StartRemote(1, map[uint64]Assignment{
		node.NodeID(): {SpaceTopic: "wt.space", TopicPrefix: "wt.sa.", Workflow: blob, Tasks: names},
	}, SessionHooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	if <-heldOut {
		t.Fatal("the build waited for an ACK before sending READY")
	}
}

// relayFrames copies whole frames from src to dst, showing each frame's
// type to look before forwarding it, until either side closes.
func relayFrames(src, dst net.Conn, look func(typ byte)) {
	r := bufio.NewReader(src)
	for {
		typ, payload, err := readFrame(r)
		if err != nil {
			return
		}
		look(typ)
		buf, _ := appendFrame(nil, typ, payload)
		if _, err := dst.Write(buf); err != nil {
			return
		}
	}
}

// TestNodeRejectsInvalidChaosAssignment: a worker checks the fault
// schedule it is handed off the wire and answers FAIL, not READY, when
// the config is out of range.
func TestNodeRejectsInvalidChaosAssignment(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	reg := agent.NewRegistry()
	reg.RegisterNoop(0.01, "s")
	node, err := Join(srv.Addr(), NodeConfig{Name: "w1", Services: reg})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer node.Close()
	blob, err := workflow.Sequence(2, "s", "in").JSON()
	if err != nil {
		t.Fatal(err)
	}
	failed := make(chan error, 1)
	rs, err := srv.StartRemote(1, map[uint64]Assignment{
		node.NodeID(): {
			SpaceTopic: "wt.space", TopicPrefix: "wt.sa.", Workflow: blob,
			Tasks: []string{"S1", "S2"},
			Chaos: failure.ChaosConfig{AgentCrashP: 1.5},
		},
	}, SessionHooks{Fail: func(err error) { failed <- err }})
	if err != nil {
		t.Fatalf("start remote: %v", err)
	}
	defer rs.Close()
	select {
	case err := <-failed:
		var nf *ErrNodeFailed
		if !errors.As(err, &nf) || !strings.Contains(nf.Msg, "bad assignment") || !strings.Contains(nf.Msg, "agent-crash") {
			t.Fatalf("failure = %v, want a bad-assignment report naming agent-crash", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker accepted an assignment with AgentCrashP = 1.5")
	}
}

// TestBatchOverFrameCapSplits: a batch whose encoding exceeds the frame
// cap is split across frames, so every message in it reaches the remote
// subscriber. Two 9 MiB messages and a small one published together
// used to travel as one 18 MiB BATCH, which the link refused whole.
func TestBatchOverFrameCapSplits(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "sub")
	sub := subscribe(t, rb, "sa.big")
	big := strings.Repeat("x", 9<<20)
	for _, body := range []string{big, big, "small"} {
		if err := br.PublishAtoms("sa.big", strAtoms(body)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []int{len(big), len(big), len("small")} {
		if got := len(strOf(sub.recv(t, 10*time.Second))); got != want {
			t.Fatalf("message %d: %d bytes, want %d", i, got, want)
		}
	}
}

// TestOversizedMessageFailsSession: a message too large for any frame
// cannot reach a worker's agent. It is counted, and the session whose
// inbox topic it was published on fails with the structured cause.
func TestOversizedMessageFailsSession(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	node, blob := joinPair(t, srv)
	defer node.Close()
	failed := make(chan error, 1)
	rs, err := srv.StartRemote(1, pairAssignment(node, blob), SessionHooks{
		Fail: func(err error) {
			select {
			case failed <- err:
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	before := metOversized.Value()
	if err := br.PublishAtoms("wt.sa.S2", strAtoms(strings.Repeat("x", maxFrame))); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-failed:
		var tl *ErrMessageTooLarge
		if !errors.As(err, &tl) || tl.Topic != "wt.sa.S2" || tl.Node != node.NodeID() || tl.Bytes <= maxFrame {
			t.Fatalf("session failed with %v, want an ErrMessageTooLarge for wt.sa.S2 on node %d", err, node.NodeID())
		}
	case <-ctx.Done():
		t.Fatal("the session was not told its message could not be forwarded")
	}
	if n := metOversized.Value() - before; n != 1 {
		t.Errorf("oversized messages counted %d, want 1", n)
	}
	rs.Stop()
	if err := rs.WaitDone(ctx); err != nil {
		t.Fatal(err)
	}
}
