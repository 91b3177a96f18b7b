package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ginflow/internal/cluster"
	"ginflow/internal/mq"
)

// The tests in this file write frames straight to a server's socket, so
// they decide which frames arrive in one read burst.

// rawNode joins srv as a new node over a bare TCP connection.
func rawNode(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeFrame(conn, fHello, encodeHello(helloFrame{version: protocolVersion, name: "raw"})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := readFrame(conn); err != nil || typ != fWelcome {
		t.Fatalf("handshake: type %d err %v", typ, err)
	}
	conn.SetReadDeadline(time.Time{})
	return conn
}

// subscribeBody is a SUBSCRIBE payload for subscription id on topic.
func subscribeBody(seq, id uint64, topic string) []byte {
	buf := binary.AppendUvarint(nil, seq)
	buf = binary.AppendUvarint(buf, id)
	return appendString(buf, topic)
}

// readAck reads the next frame, which must be an ACK, and returns the
// sequence it covers.
func readAck(t *testing.T, conn net.Conn, timeout time.Duration) uint64 {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(timeout))
	typ, payload, err := readFrame(conn)
	if err != nil || typ != fAck {
		t.Fatalf("want an ACK: type %d err %v", typ, err)
	}
	c := cursor{buf: payload}
	seq, err := c.uvarint()
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// expectSilence fails if any frame arrives within d.
func expectSilence(t *testing.T, conn net.Conn, d time.Duration, what string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(d))
	typ, _, err := readFrame(conn)
	if err == nil {
		t.Fatalf("%s: got frame type %d, want none", what, typ)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestAckAfterControlFrameEndsBurst: a reliable frame followed by a
// control frame in the same read burst is still acknowledged, so the
// sender's wait for it completes. A receiver that ACKs only when the
// burst's last frame is reliable owes this ACK forever.
func TestAckAfterControlFrameEndsBurst(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	conn := rawNode(t, srv)

	// The sending link has no connection: its frame goes to the outbox
	// only, and the test writes the bytes itself.
	var l link
	seq, _ := l.send(fSubscribe, func(seq uint64) []byte { return subscribeBody(seq, 1, "wf1.sa.T1") })
	acked := l.whenAcked(seq)
	burst := append(frameBytes(t, fSubscribe, l.outbox[0].payload), frameBytes(t, fPing, nil)...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			typ, payload, err := readFrame(conn)
			if err != nil {
				return
			}
			if typ == fAck {
				c := cursor{buf: payload}
				if seq, err := c.uvarint(); err == nil {
					l.onAck(seq)
				}
			}
		}
	}()
	select {
	case <-acked:
	case <-time.After(5 * time.Second):
		t.Fatal("the SUBSCRIBE was never acknowledged")
	}
}

// TestAckOnePerBurst: k reliable frames in one write draw exactly one
// ACK, and it covers the last of them.
func TestAckOnePerBurst(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	conn := rawNode(t, srv)

	const k = 6
	var burst []byte
	for seq := uint64(1); seq <= k; seq++ {
		burst = append(burst, frameBytes(t, fPublish, encodePublish(seq, publishFrame{topic: "wf1.sa.T1"}))...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	if seq := readAck(t, conn, 5*time.Second); seq != k {
		t.Fatalf("ACK covers %d, want %d", seq, k)
	}
	expectSilence(t, conn, 200*time.Millisecond, "after the burst's ACK")
}

// gatedBroker holds every Subscribe until release is closed and records
// when the inner Subscribe has returned.
type gatedBroker struct {
	mq.PubSub
	entered  chan struct{}
	release  chan struct{}
	returned atomic.Bool
}

func (g *gatedBroker) Subscribe(topic string) (*mq.Subscription, error) {
	close(g.entered)
	<-g.release
	sub, err := g.PubSub.Subscribe(topic)
	g.returned.Store(true)
	return sub, err
}

// TestAckFollowsSubscribeDispatch: the ACK covering a SUBSCRIBE is
// written only after the server-side subscription exists, which is what
// a client's synchronous Subscribe relies on.
func TestAckFollowsSubscribeDispatch(t *testing.T) {
	clock := cluster.NewClock(50 * time.Microsecond)
	inner := mq.NewLogBrokerSharded(clock, 0.001, 4)
	g := &gatedBroker{PubSub: inner, entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Broker: g})
	if err != nil {
		t.Fatal(err)
	}
	released := false
	t.Cleanup(func() {
		if !released {
			close(g.release)
		}
		srv.Close()
		inner.Close()
	})
	conn := rawNode(t, srv)

	if _, err := conn.Write(frameBytes(t, fSubscribe, subscribeBody(1, 1, "wf1.sa.T1"))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("SUBSCRIBE never reached the broker")
	}
	expectSilence(t, conn, 200*time.Millisecond, "while Subscribe is held")
	close(g.release)
	released = true
	if seq := readAck(t, conn, 5*time.Second); seq != 1 {
		t.Fatalf("ACK covers %d, want 1", seq)
	}
	if !g.returned.Load() {
		t.Fatal("ACK written before the broker subscription existed")
	}
}

// TestRemoteEventsLossless: a worker's EVENT frames all reach the
// session's Event hook, in order, before its DONE completes WaitDone,
// however many arrive and however fast.
func TestRemoteEventsLossless(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	conn := rawNode(t, srv)
	go io.Copy(io.Discard, conn) // the ASSIGN and the ACKs
	node := srv.NodeIDs()[0]

	var (
		mu   sync.Mutex
		seen []NodeEvent
	)
	const session, n = 7, 5000
	rs, err := srv.StartRemote(session, map[uint64]Assignment{node: {}}, SessionHooks{
		Event: func(e NodeEvent) {
			mu.Lock()
			seen = append(seen, e)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	var burst []byte
	for seq := uint64(1); seq <= n; seq++ {
		e := NodeEvent{At: float64(seq), Kind: "message-deduped", Task: "T", Incarnation: int(seq)}
		burst = append(burst, frameBytes(t, fEvent, encodeEvent(seq, session, e))...)
	}
	burst = append(burst, frameBytes(t, fDone, encodeSession(n+1, session))...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.WaitDone(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != n {
		t.Fatalf("Event hook saw %d of %d events before DONE", len(seen), n)
	}
	for i, e := range seen {
		if e.Incarnation != i+1 || e.Node != node {
			t.Fatalf("event %d = %+v, want incarnation %d from node %d", i, e, i+1, node)
		}
	}
}
