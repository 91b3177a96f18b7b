package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
)

// link is one side of a transport connection's reliable layer. It
// serializes writes, assigns sequence numbers to reliable frames, keeps
// every unacknowledged frame in an outbox for replay after a reconnect,
// and dedups incoming reliable frames by sequence number. The link
// outlives individual connections: a broken socket detaches, a
// handshake attaches the replacement and replays the outbox.
type link struct {
	// dispatching orders dispatch across connections: a read loop on a
	// dropped socket may still be dispatching when its successor accepts
	// the next frame, and the peer's frames must reach dispatch in
	// sequence.
	dispatching sync.Mutex

	mu      sync.Mutex
	conn    net.Conn
	nextSeq uint64
	outbox  []sentFrame
	lastIn  uint64
	acked   uint64
	waiters []ackWaiter
}

// ackWaiter signals a sender blocked until its frame's sequence is
// cumulatively acknowledged (the synchronous-subscribe round trip).
type ackWaiter struct {
	seq uint64
	ch  chan struct{}
}

// sentFrame is one reliable frame awaiting acknowledgement. payload
// includes the sequence prefix, so replay is a plain re-write.
type sentFrame struct {
	seq     uint64
	typ     byte
	payload []byte
}

// send transmits a reliable frame whose payload was built by an
// encode* helper around the sequence seq returns. Reliable sends never
// fail: if the connection is down (or breaks mid-write) the frame stays
// in the outbox and the next attach replays it.
func (l *link) send(typ byte, build func(seq uint64) []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq++
	payload := build(l.nextSeq)
	l.outbox = append(l.outbox, sentFrame{seq: l.nextSeq, typ: typ, payload: payload})
	metUnacked.Add(1)
	if l.conn != nil {
		if err := writeFrame(l.conn, typ, payload); err != nil {
			l.conn.Close()
			l.conn = nil
		}
	}
}

// sendWait is send plus a completion signal: the returned channel
// closes when the peer's cumulative ACK passes this frame — i.e. the
// peer has processed it, since acks are sent post-dispatch. Used where
// the caller needs synchronous semantics (Subscribe must not return
// before the subscription is live on the serving broker).
func (l *link) sendWait(typ byte, build func(seq uint64) []byte) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextSeq++
	seq := l.nextSeq
	payload := build(seq)
	l.outbox = append(l.outbox, sentFrame{seq: seq, typ: typ, payload: payload})
	metUnacked.Add(1)
	if l.conn != nil {
		if err := writeFrame(l.conn, typ, payload); err != nil {
			l.conn.Close()
			l.conn = nil
		}
	}
	ch := make(chan struct{})
	l.waiters = append(l.waiters, ackWaiter{seq: seq, ch: ch})
	return ch
}

// sendControl transmits an unsequenced control frame on the current
// connection, if any; control frames are connection-scoped and are
// never replayed.
func (l *link) sendControl(typ byte, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return
	}
	if err := writeFrame(l.conn, typ, payload); err != nil {
		l.conn.Close()
		l.conn = nil
	}
}

// sendAck acknowledges everything received so far.
func (l *link) sendAck() {
	l.mu.Lock()
	seq := l.lastIn
	l.mu.Unlock()
	l.sendControl(fAck, binary.AppendUvarint(nil, seq))
}

// serve reads one connection until it breaks or the peer violates the
// protocol. It answers PING, applies the peer's ACKs, and hands each
// fresh reliable frame to dispatch (a duplicate replayed after a
// reconnect is dropped by sequence).
//
// ACKs are cumulative and sent once per read burst. Dispatching a
// reliable frame leaves an ACK owed; the loop writes it as soon as the
// buffer holds no whole frame, i.e. before the next readFrame could block
// on the socket. That holds whatever frame type ended the burst: a burst
// that ends on PING, PONG or the peer's own ACK still pays what it owes.
// The ACK follows dispatch, so it certifies processing: a sendWait on the
// peer (the synchronous Subscribe the READY barrier builds on) returns
// only after the frame's dispatch here has returned.
//
// Batching is deadlock-free because no dispatch path waits on the peer:
// dispatch hands work to the broker, to an unbounded queue, to a
// buffered channel or to a remote session's non-blocking hooks, and
// never blocks until another frame arrives. A dispatch that did wait for
// the peer could hold back an owed ACK the peer is itself waiting for.
func (l *link) serve(r *bufio.Reader, dispatch func(typ byte, c *cursor) error) {
	owed := false
	// One cursor per connection, not per frame: handed to a func value,
	// a per-frame cursor would escape to the heap. dispatch must not
	// retain it.
	c := new(cursor)
	for {
		if owed && !frameBuffered(r) {
			l.sendAck()
			owed = false
		}
		typ, payload, err := readFrame(r)
		if err != nil {
			return
		}
		*c = cursor{buf: payload}
		switch typ {
		case fPing:
			l.sendControl(fPong, nil)
			continue
		case fPong:
			continue
		case fAck:
			seq, err := c.uvarint()
			if err != nil {
				return
			}
			l.onAck(seq)
			continue
		case fHello, fWelcome:
			return // handshake frames mid-stream: protocol violation
		}
		seq, err := c.uvarint()
		if err != nil {
			return
		}
		l.dispatching.Lock()
		fresh, err := l.accept(seq)
		if err == nil && fresh {
			err = dispatch(typ, c)
		}
		l.dispatching.Unlock()
		if err != nil {
			return
		}
		owed = true
	}
}

// frameBuffered reports whether r already holds a whole frame, so the
// next readFrame returns without touching the socket.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	hdr, _ := r.Peek(4) // cannot fail: 4 bytes are buffered
	return uint64(r.Buffered()) >= 4+uint64(binary.BigEndian.Uint32(hdr))
}

// onAck trims the outbox up to the peer's cumulative sequence and
// releases any senders waiting on it.
func (l *link) onAck(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := 0
	for i < len(l.outbox) && l.outbox[i].seq <= seq {
		i++
	}
	if i > 0 {
		l.outbox = append(l.outbox[:0:0], l.outbox[i:]...)
		metUnacked.Add(-float64(i))
	}
	if seq > l.acked {
		l.acked = seq
	}
	kept := l.waiters[:0]
	for _, w := range l.waiters {
		if w.seq <= l.acked {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	l.waiters = kept
}

// accept dedups an incoming reliable sequence number: false for a
// replayed duplicate, an error for a gap (the peer lost state we cannot
// recover — a protocol violation that kills the connection).
func (l *link) accept(seq uint64) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case seq <= l.lastIn:
		return false, nil
	case seq == l.lastIn+1:
		l.lastIn = seq
		return true, nil
	default:
		return false, fmt.Errorf("%w: sequence gap: got %d, want %d", errFrame, seq, l.lastIn+1)
	}
}

// received returns the highest reliable sequence accepted so far (the
// lastSeq the handshake advertises).
func (l *link) received() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastIn
}

// attach installs a (re)connected socket and replays the outbox. The
// caller has already trimmed it via onAck with the peer's handshake
// lastSeq, so only genuinely unacknowledged frames go out again.
func (l *link) attach(conn net.Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	for _, f := range l.outbox {
		if err := writeFrame(conn, f.typ, f.payload); err != nil {
			conn.Close()
			l.conn = nil
			return
		}
	}
}

// detach clears the connection if it is still the given one (a stale
// read loop must not tear down its successor's socket).
func (l *link) detach(conn net.Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == conn {
		l.conn.Close()
		l.conn = nil
	}
}

// close tears the current connection down unconditionally.
func (l *link) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}
