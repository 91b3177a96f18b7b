package transport

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/workflow"
)

// joinPair joins one worker hosting service "s" to srv and returns it
// with the JSON of a two-task sequence over that service.
func joinPair(t *testing.T, srv *Server) (*Node, []byte) {
	t.Helper()
	reg := agent.NewRegistry()
	reg.RegisterNoop(0.01, "s")
	node, err := Join(srv.Addr(), NodeConfig{Name: "w1", Services: reg, PingInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := workflow.Sequence(2, "s", "in").JSON()
	if err != nil {
		t.Fatal(err)
	}
	return node, blob
}

// pairAssignment assigns both tasks of joinPair's sequence to node.
func pairAssignment(node *Node, blob []byte) map[uint64]Assignment {
	return map[uint64]Assignment{node.NodeID(): {
		SpaceTopic: "wt.space", TopicPrefix: "wt.sa.", Workflow: blob,
		Tasks: []string{"S1", "S2"}, ScaleNS: int64(50 * time.Microsecond),
	}}
}

// clientSubs counts a worker's live remote subscriptions.
func clientSubs(rb *RemoteBroker) int {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return len(rb.subs)
}

// TestNodeStopBeforeStartRunsNothing: a session stopped before it
// started runs none of its agents (no event reaches the manager) and
// releases every subscription; a worker closed twice while it holds
// such a session closes cleanly.
func TestNodeStopBeforeStartRunsNothing(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	node, blob := joinPair(t, srv)
	defer node.Close()
	var events atomic.Int64
	hooks := SessionHooks{Event: func(NodeEvent) { events.Add(1) }}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rs, err := srv.StartRemote(1, pairAssignment(node, blob), hooks)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	sb := node.session(1).Config.Broker.(*sessionBroker)
	rs.Stop()
	if err := rs.WaitDone(ctx); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	if n := events.Load(); n != 0 {
		t.Errorf("a session stopped before START forwarded %d events", n)
	}
	if n := localRegistrations(sb); n != 0 {
		t.Errorf("%d local subscriptions left after STOP", n)
	}
	if n := clientSubs(node.rb); n != 0 {
		t.Errorf("%d remote subscriptions left after STOP", n)
	}

	// A second session is still held, never started, when the worker
	// closes; a second Close stops it again.
	rs, err = srv.StartRemote(2, pairAssignment(node, blob), hooks)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := rs.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	node.Close()
	node.Close()
	if n := events.Load(); n != 0 {
		t.Errorf("closing the worker ran a never-started session: %d events", n)
	}
}

// TestOversizedAssignmentLeavesLinkUsable: an assignment too large for
// one frame fails StartRemote and never enters the link's outbox, so
// the worker's connection stays up and a second session reaches READY.
func TestOversizedAssignmentLeavesLinkUsable(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	node, blob := joinPair(t, srv)
	defer node.Close()
	reconnects := metReconnects.Value()

	big := pairAssignment(node, blob)
	a := big[node.NodeID()]
	a.Locals = map[string][]byte{"S1": make([]byte, maxFrame)}
	big[node.NodeID()] = a
	if rs, err := srv.StartRemote(1, big, SessionHooks{}); err == nil {
		rs.Close()
		t.Fatal("StartRemote accepted an assignment larger than a frame")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Second)
	defer cancel()
	rs, err := srv.StartRemote(2, pairAssignment(node, blob), SessionHooks{})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if err := rs.WaitReady(ctx); err != nil {
		t.Fatalf("second session: %v", err)
	}
	if n := metReconnects.Value() - reconnects; n != 0 {
		t.Errorf("the worker reconnected %d times", n)
	}
	rs.Stop()
	if err := rs.WaitDone(ctx); err != nil {
		t.Fatal(err)
	}
}
