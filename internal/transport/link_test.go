package transport

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ginflow/internal/agent"
	"ginflow/internal/cluster"
	"ginflow/internal/hocl"
	"ginflow/internal/mq"
	"ginflow/internal/space"
	"ginflow/internal/workflow"
)

// The tests in this file drive one link's combining writer directly, over
// an in-memory pipe, or through a server and its client.

// slowConn is a socket whose every Write takes at least delay; writes
// counts them.
type slowConn struct {
	net.Conn
	delay  time.Duration
	writes atomic.Int64
	// inFlight, if set, receives a value as each Write starts.
	inFlight chan struct{}
}

func (c *slowConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.inFlight != nil {
		select {
		case c.inFlight <- struct{}{}:
		default:
		}
	}
	time.Sleep(c.delay)
	return c.Conn.Write(p)
}

// publishBody builds a reliable PUBLISH payload around seq.
func publishBody(seq uint64) []byte { return encodePublish(seq, publishFrame{topic: "t"}) }

// seqOf reads the sequence number a reliable frame's payload starts with.
func seqOf(payload []byte) uint64 {
	c := cursor{buf: payload}
	seq, _ := c.uvarint()
	return seq
}

// readReliable reads frames from conn until it has n reliable ones or
// the stream ends, and returns their sequence numbers in arrival order.
func readReliable(conn net.Conn, n int) ([]uint64, error) {
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReaderSize(conn, readBufSize)
	var seqs []uint64
	for len(seqs) < n {
		typ, payload, err := readFrame(r)
		if err != nil {
			return seqs, err
		}
		if typ >= fSubscribe {
			seqs = append(seqs, seqOf(payload))
		}
	}
	return seqs, nil
}

// inSequence fails unless seqs is exactly 1..n.
func inSequence(t *testing.T, seqs []uint64, n int) {
	t.Helper()
	if len(seqs) != n {
		t.Fatalf("peer saw %d reliable frames, want %d", len(seqs), n)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("frame %d carries sequence %d, want %d", i, seq, i+1)
		}
	}
}

// TestLinkCoalescesConcurrentSends: frames that 16 goroutines send on one
// link while a slow write is in flight share the following writes. The
// peer sees every sequence once, in order, in at most a quarter as many
// socket writes as frames.
func TestLinkCoalescesConcurrentSends(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	conn := &slowConn{Conn: near, delay: 100 * time.Microsecond}
	var l link
	l.attach(conn)
	defer l.close()

	const senders, each = 16, 1000
	const frames = senders * each
	type result struct {
		seqs []uint64
		err  error
	}
	got := make(chan result, 1)
	go func() {
		seqs, err := readReliable(far, frames)
		got <- result{seqs, err}
	}()
	before := metSocketWrites.Value()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.send(fPublish, publishBody)
			}
		}()
	}
	wg.Wait()
	res := <-got
	if res.err != nil {
		t.Fatalf("peer read: %v after %d frames", res.err, len(res.seqs))
	}
	inSequence(t, res.seqs, frames)
	writes := conn.writes.Load()
	if writes > frames/4 {
		t.Fatalf("%d socket writes for %d frames, want at most %d", writes, frames, frames/4)
	}
	if counted := metSocketWrites.Value() - before; counted < writes {
		t.Fatalf("socket-writes counter moved %d for %d writes", counted, writes)
	}
	t.Logf("%d frames in %d socket writes", frames, writes)
}

// TestLinkReleaseWritesHeldFramesOnce: held frames stay off the socket
// until release, which writes them in one write, in sequence.
func TestLinkReleaseWritesHeldFramesOnce(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	conn := &slowConn{Conn: near}
	var l link
	l.attach(conn)
	defer l.close()

	const frames = 66
	got := make(chan []uint64, 1)
	go func() {
		seqs, _ := readReliable(far, frames)
		got <- seqs
	}()
	for i := 0; i < frames; i++ {
		l.hold(fSubscribe, func(seq uint64) []byte { return subscribeBody(seq, seq, "t") })
	}
	if w := conn.writes.Load(); w != 0 {
		t.Fatalf("%d socket writes before release, want 0", w)
	}
	l.release()
	inSequence(t, <-got, frames)
	if w := conn.writes.Load(); w != 1 {
		t.Fatalf("%d socket writes for %d held frames, want 1", w, frames)
	}
}

// ackingConn is a peer that acknowledges every reliable frame as it is
// written: its Write applies the ACK to the sending link before it
// returns, as a fast peer's ACK can arrive while the sender's write is
// still returning.
type ackingConn struct {
	net.Conn // unset: the link only writes and closes
	l        *link
}

func (c *ackingConn) Write(p []byte) (int, error) {
	r := bytes.NewReader(p)
	var last uint64
	for {
		typ, payload, err := readFrame(r)
		if err != nil {
			break
		}
		if typ >= fSubscribe {
			last = seqOf(payload)
		}
	}
	c.l.onAck(last)
	return len(p), nil
}

func (c *ackingConn) Close() error { return nil }

// TestLinkSendWaitRoundTrips: 10⁴ send-then-wait round trips against a
// peer that ACKs inside the write all complete. The waiter is
// registered after the frame's write, so a waiter that ignored an ACK
// applied during the write would wait forever.
func TestLinkSendWaitRoundTrips(t *testing.T) {
	var l link
	l.attach(&ackingConn{l: &l})
	defer l.close()

	const senders, each = 4, 2500
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					seq, _ := l.send(fSubscribe, func(seq uint64) []byte { return subscribeBody(seq, 1, "t") })
					<-l.whenAcked(seq)
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("round trips did not complete: a waiter missed its ACK")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.outbox) != 0 || len(l.waiters) != 0 {
		t.Fatalf("after every ACK: %d frames in the outbox, %d waiters", len(l.outbox), len(l.waiters))
	}
}

// TestLinkAckFollowsHeldDispatch: while the dispatch of the peer's frame
// is held, another goroutine floods frames on the same link, and none of
// its writes carries an ACK: an ACK covering the frame is written only
// after its dispatch returns.
func TestLinkAckFollowsHeldDispatch(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	var l link
	l.attach(near)
	defer l.close()

	held, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unhold := func() { releaseOnce.Do(func() { close(release) }) }
	served := make(chan struct{})
	go func() {
		defer close(served)
		l.serve(bufio.NewReader(near), func(typ byte, c *cursor) error {
			close(held)
			<-release
			return nil
		})
	}()
	defer func() {
		unhold()
		near.Close()
		<-served
	}()

	frame, err := appendFrame(nil, fReady, encodeSession(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	go far.Write(frame)
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the peer's frame was never dispatched")
	}

	const flood = 2000
	go func() {
		for i := 0; i < flood; i++ {
			l.send(fPublish, publishBody)
		}
	}()
	far.SetReadDeadline(time.Now().Add(30 * time.Second))
	r := bufio.NewReader(far)
	for n := 0; n < flood; {
		typ, payload, err := readFrame(r)
		if err != nil {
			t.Fatalf("after %d flood frames: %v", n, err)
		}
		switch typ {
		case fAck:
			t.Fatalf("ACK for %d written while its dispatch was held", seqOf(payload))
		case fPublish:
			n++
		}
	}
	unhold()
	typ, payload, err := readFrame(r)
	if err != nil || typ != fAck || seqOf(payload) != 1 {
		t.Fatalf("after dispatch: type %d seq %d err %v, want an ACK for 1", typ, seqOf(payload), err)
	}
}

// TestLinkDropMidFlush: connections dropped while eight goroutines
// publish through one client lose and duplicate nothing. The server
// dispatches every publish once, and each sender's publishes in order.
func TestLinkDropMidFlush(t *testing.T) {
	srv, br, _ := newTestServer(t, nil)
	rb := dialTest(t, srv, "hammer")

	const senders, each = 8, 300
	const total = senders * each
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := rb.PublishAtoms("hammer", []hocl.Atom{hocl.Int(s), hocl.Int(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		time.Sleep(2 * time.Millisecond)
		srv.DropConnections()
	}
	wg.Wait()

	deadline := time.Now().Add(20 * time.Second)
	hammerLog := func() []mq.Message {
		log, _ := br.Log("hammer") // an in-process log read never fails
		return log
	}
	for len(hammerLog()) < total && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // a replayed duplicate would land by now
	log := hammerLog()
	if len(log) != total {
		t.Fatalf("server dispatched %d publishes, want %d", len(log), total)
	}
	next := make([]int, senders)
	for _, m := range log {
		s, i := int(m.Atoms[0].(hocl.Int)), int(m.Atoms[1].(hocl.Int))
		if i != next[s] {
			t.Fatalf("sender %d: publish %d dispatched after %d", s, i, next[s]-1)
		}
		next[s]++
	}
}

// TestLinkCloseWritesQueuedFrame: a DONE queued behind an in-flight write
// just before close reaches the peer ahead of the close.
func TestLinkCloseWritesQueuedFrame(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	conn := &slowConn{Conn: near, delay: 20 * time.Millisecond, inFlight: make(chan struct{}, 1)}
	var l link
	l.attach(conn)

	got := make(chan []byte, 1)
	go func() {
		var types []byte
		r := bufio.NewReader(far)
		for {
			typ, _, err := readFrame(r)
			if err != nil {
				got <- types
				return
			}
			types = append(types, typ)
		}
	}()
	go l.send(fEvent, func(seq uint64) []byte { return encodeEvent(seq, 7, NodeEvent{Kind: "k"}) })
	<-conn.inFlight
	l.send(fDone, func(seq uint64) []byte { return encodeSession(seq, 7) })
	l.close()
	select {
	case types := <-got:
		if !bytes.Equal(types, []byte{fEvent, fDone}) {
			t.Fatalf("peer saw frame types %v, want EVENT then DONE", types)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the peer never saw the connection close")
	}
}

// TestNodeForgetsSessionTopics: a worker that has served 50 sessions
// leaves no goroutine behind when it closes, and no session leaves a
// local registration behind once it stops. Its RemoteBroker keeps no
// per-topic state, so there is no topic record to forget.
func TestNodeForgetsSessionTopics(t *testing.T) {
	before := runtime.NumGoroutine()
	clock := cluster.NewClock(50 * time.Microsecond)
	br := mq.NewLogBrokerSharded(clock, 0.001, 4)
	defer br.Close()
	srv, err := Listen("127.0.0.1:0", ServerConfig{Broker: br})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := agent.NewRegistry()
	reg.RegisterNoop(0.01, "s")
	node, err := Join(srv.Addr(), NodeConfig{Name: "w1", Services: reg, PingInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	blob, err := workflow.Sequence(2, "s", "in").JSON()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for id := uint64(1); id <= 50; id++ {
		ns := fmt.Sprintf("wf%d.", id)
		spaceTopic := space.TopicFor(ns)
		rs, err := srv.StartRemote(id, map[uint64]Assignment{
			node.NodeID(): {
				SpaceTopic: spaceTopic, TopicPrefix: ns + agent.DefaultTopicPrefix, Workflow: blob,
				Tasks: []string{"S1", "S2"}, ScaleNS: int64(50 * time.Microsecond),
			},
		}, SessionHooks{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.WaitReady(ctx); err != nil {
			t.Fatalf("session %d ready: %v", id, err)
		}
		sb := node.session(id).Config.Broker.(*sessionBroker)
		if got := localRegistrations(sb); got != 2 {
			t.Fatalf("session %d: %d local registrations after READY, want 2", id, got)
		}
		sp := space.New()
		if err := sp.Attach(br, spaceTopic); err != nil {
			t.Fatal(err)
		}
		spCtx, spCancel := context.WithCancel(ctx)
		served := make(chan struct{})
		go func() {
			defer close(served)
			sp.Serve(spCtx, br, spaceTopic)
		}()
		rs.Start()
		err = sp.WaitCompleted(ctx, []string{"S1", "S2"})
		rs.Stop()
		if err == nil {
			err = rs.WaitDone(ctx)
		}
		rs.Close()
		spCancel()
		<-served
		br.PurgeTopics(ns)
		if err != nil {
			t.Fatalf("session %d: %v", id, err)
		}
		if got := localRegistrations(sb); got != 0 {
			t.Fatalf("session %d: %d local registrations left after DONE", id, got)
		}
	}

	node.Close()
	srv.Close()
	br.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines: %d before, %d after Close\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// localRegistrations counts a session broker's live local subscriptions.
func localRegistrations(sb *sessionBroker) int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return len(sb.live)
}
