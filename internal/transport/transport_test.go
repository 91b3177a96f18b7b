package transport

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/failure"
	"ginflow/internal/hocl"
	"ginflow/internal/mq"
	"ginflow/internal/space"
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

func subscribe(t *testing.T, b mq.Broker, topic string) *feed {
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

func TestRemotePublishReachesBroker(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "pub")
	sub := subscribe(t, br, "sa.t")
	if err := rb.Publish("sa.t", "hello"); err != nil {
		t.Fatal(err)
	}
	if m := sub.recv(t, 5*time.Second); m.Payload != "hello" || m.Structural() {
		t.Fatalf("got %+v", m)
	}
	if err := rb.PublishAtoms("sa.t", []hocl.Atom{hocl.Str("res"), hocl.Int(7)}); err != nil {
		t.Fatal(err)
	}
	m := sub.recv(t, 5*time.Second)
	if !m.Structural() || len(m.Atoms) != 2 {
		t.Fatalf("structural publish arrived as %+v", m)
	}
	if rb.Published() != 2 || rb.PublishedPrefix("sa.") != 2 {
		t.Fatalf("local counters: %d / %d", rb.Published(), rb.PublishedPrefix("sa."))
	}
}

func TestRemoteSubscribeReceives(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "sub")
	sub := subscribe(t, rb, "sa.x")
	if err := br.Publish("sa.x", "one"); err != nil {
		t.Fatal(err)
	}
	if err := br.PublishAtoms("sa.x", []hocl.Atom{hocl.Int(2)}); err != nil {
		t.Fatal(err)
	}
	m1 := sub.recv(t, 5*time.Second)
	if m1.Topic != "sa.x" || m1.Payload != "one" {
		t.Fatalf("first: %+v", m1)
	}
	m2 := sub.recv(t, 5*time.Second)
	if !m2.Structural() || len(m2.Atoms) != 1 {
		t.Fatalf("second: %+v", m2)
	}
	// Cancelling unsubscribes remotely; later publishes go nowhere.
	sub.sub.Cancel()
}

func TestReconnectResumesBothDirections(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "rec")
	sub := subscribe(t, rb, "sa.r")
	if err := br.Publish("sa.r", "m1"); err != nil {
		t.Fatal(err)
	}
	if m := sub.recv(t, 5*time.Second); m.Payload != "m1" {
		t.Fatalf("pre-drop: %+v", m)
	}

	local := subscribe(t, br, "sa.c")
	srv.DropNode(rb.NodeID())
	// Traffic during the outage queues on both sides' outboxes.
	for i := 2; i <= 4; i++ {
		if err := br.Publish("sa.r", fmt.Sprintf("m%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rb.Publish("sa.c", "c1"); err != nil {
		t.Fatal(err)
	}

	seen := map[string]int{}
	for i := 0; i < 3; i++ {
		seen[sub.recv(t, 10*time.Second).Payload]++
	}
	for i := 2; i <= 4; i++ {
		if k := fmt.Sprintf("m%d", i); seen[k] != 1 {
			t.Fatalf("message %s seen %d times (%v)", k, seen[k], seen)
		}
	}
	if m := local.recv(t, 10*time.Second); m.Payload != "c1" {
		t.Fatalf("client publish during outage: %+v", m)
	}
	if srv.NodeCount() != 1 {
		t.Fatalf("reconnect created a new identity: %d nodes", srv.NodeCount())
	}
}

func TestLogRoundTrip(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "log")
	if err := br.Publish("sa.log", "zero"); err != nil {
		t.Fatal(err)
	}
	if err := br.PublishAtoms("sa.log", []hocl.Atom{hocl.Str("one")}); err != nil {
		t.Fatal(err)
	}
	msgs := rb.Log("sa.log")
	if len(msgs) != 2 {
		t.Fatalf("Log returned %d messages, want 2", len(msgs))
	}
	if msgs[0].Payload != "zero" || msgs[0].Topic != "sa.log" || msgs[0].Offset != 0 {
		t.Fatalf("first: %+v", msgs[0])
	}
	if !msgs[1].Structural() || msgs[1].Offset != 1 {
		t.Fatalf("second: %+v", msgs[1])
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
		if err := rb.Publish("sa.chaos", fmt.Sprintf("p%d", i)); err != nil {
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
			seen[m.Payload] = true
		}
	}
	if chaos.Faults() == 0 {
		t.Fatal("chaos schedule drew no faults; the hook is not wired")
	}
}

// TestNodeRunsAssignedSession drives the full worker protocol in one
// process: assign a two-task sequence, barrier on READY, start, watch
// the space converge, stop, and collect the DONE stats.
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
	rs, err := srv.StartRemote(1, map[uint64]Assignment{
		node.NodeID(): {
			SpaceTopic:  "wt.space",
			TopicPrefix: "wt.sa.",
			Workflow:    blob,
			Tasks:       []string{"S1", "S2"},
			Seed:        1,
			ScaleNS:     int64(50 * time.Microsecond),
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

	sp := space.New()
	spCtx, spCancel := context.WithCancel(context.Background())
	defer spCancel()
	go sp.Serve(spCtx, br, "wt.space")

	rs.Start()
	if err := sp.WaitCompleted(ctx, []string{"S1", "S2"}); err != nil {
		t.Fatalf("convergence: %v (err channel: %v)", err, drainFailed(rs))
	}
	rs.Stop()
	stats, err := rs.WaitDone(ctx)
	if err != nil {
		t.Fatalf("done: %v", err)
	}
	if stats.Failures != 0 || stats.Recoveries != 0 {
		t.Fatalf("unexpected stats: %+v", stats)
	}
	if sp.StateFingerprint() == 0 {
		t.Fatal("space fingerprint is zero after convergence")
	}
}

func drainFailed(rs *RemoteSession) error {
	select {
	case err := <-rs.Failed():
		return err
	default:
		return nil
	}
}
