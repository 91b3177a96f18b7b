package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
)

// link is one side of a transport connection's reliable layer. It
// assigns sequence numbers to reliable frames, keeps every
// unacknowledged frame in an outbox for replay after a reconnect, and
// dedups incoming reliable frames by sequence number. The link outlives
// individual connections: a broken socket detaches, a handshake attaches
// the replacement and replays the outbox.
//
// Every frame the link sends, reliable or control, goes through one
// combining writer. A sender appends its frame to pending under mu; a
// sender that finds no flush in progress becomes the flusher: it takes
// the pending buffer, releases mu for a single conn.Write, and repeats
// until nothing is pending. Senders that arrive meanwhile append and
// return, and their frames share the flusher's next write. Frames reach
// the socket in the order they were queued, so reliable frames stay in
// sequence order.
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

	// pending holds the encoded frames queued for conn (pendingN of
	// them); spare is the buffer the last write used, swapped in when a
	// flusher takes pending, so the steady state allocates nothing.
	pending  []byte
	spare    []byte
	pendingN int64
	// flushing is set while a flusher has mu released for its write.
	// attach and close wait it out on idle; quiescing counts them, and
	// a flusher takes no further pass while one is waiting.
	flushing  bool
	quiescing int
	idle      sync.Cond
}

// maxSpare bounds the write buffer the link keeps between flushes: a
// replay or a large LOGRESP may grow one far past the usual burst.
const maxSpare = 1 << 20

// ackWaiter signals a sender blocked until its frame's sequence is
// cumulatively acknowledged (the synchronous-subscribe round trip).
type ackWaiter struct {
	seq uint64
	ch  chan struct{}
}

// sentFrame is one reliable frame awaiting acknowledgement. payload
// includes the sequence prefix, so replay is a plain re-queue.
type sentFrame struct {
	seq     uint64
	typ     byte
	payload []byte
}

// send transmits a reliable frame whose payload was built by an
// encode* helper around the sequence seq, and returns seq. A reliable
// send fails only on a frame too large to encode: if the connection is
// down (or breaks mid-write) the frame stays in the outbox and the next
// attach replays it.
func (l *link) send(typ byte, build func(seq uint64) []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, err := l.enqueue(typ, build)
	l.flush()
	return seq, err
}

// hold queues a reliable frame like send but does not write it: the
// next flush carries it, whichever sender makes it, and release makes
// one. A burst of held frames costs one socket write.
func (l *link) hold(typ byte, build func(seq uint64) []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.enqueue(typ, build)
}

// release writes whatever frames are held (see hold).
func (l *link) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flush()
}

// whenAcked returns a channel that closes once the peer's cumulative ACK
// covers seq — i.e. the peer has processed every frame up to it, since
// acks are sent post-dispatch. Used where the caller needs synchronous
// semantics (Subscribe must not return before the subscription is live
// on the serving broker). An ACK applied before the call, even while
// the frame's own write was still in flight, is seen: l.acked only
// grows, under the lock the waiter list shares.
func (l *link) whenAcked(seq uint64) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	ch := make(chan struct{})
	if seq <= l.acked {
		close(ch)
		return ch
	}
	l.waiters = append(l.waiters, ackWaiter{seq: seq, ch: ch})
	return ch
}

// enqueue assigns the next sequence, keeps the frame in the outbox and
// queues it for the current connection; l.mu held. A frame too large to
// encode is refused before it takes a sequence: in the outbox, every
// reconnect would replay it and drop the connection again.
func (l *link) enqueue(typ byte, build func(seq uint64) []byte) (uint64, error) {
	payload := build(l.nextSeq + 1)
	if n := 1 + len(payload); n > maxFrame {
		return 0, fmt.Errorf("%w: oversized frame (%d bytes)", errFrame, n)
	}
	l.nextSeq++
	l.outbox = append(l.outbox, sentFrame{seq: l.nextSeq, typ: typ, payload: payload})
	metUnacked.Add(1)
	l.queue(typ, payload)
	return l.nextSeq, nil
}

// sendControl transmits an unsequenced control frame on the current
// connection, if any; control frames are connection-scoped and are
// never replayed.
func (l *link) sendControl(typ byte, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queue(typ, payload)
	l.flush()
}

// sendAck acknowledges everything received so far. The serve loop calls
// it after dispatch, so the sequence it reads is processed; if a flush is
// in flight, that flusher writes the ACK on its next pass, together with
// the frames queued beside it.
func (l *link) sendAck() {
	var buf [binary.MaxVarintLen64]byte
	l.mu.Lock()
	defer l.mu.Unlock()
	l.queue(fAck, binary.AppendUvarint(buf[:0], l.lastIn))
	l.flush()
}

// queue appends one frame to the pending buffer if a connection is
// attached; l.mu held. enqueue has checked a reliable frame's size, and
// control frames are small.
func (l *link) queue(typ byte, payload []byte) {
	if l.conn == nil {
		return
	}
	l.pending, _ = appendFrame(l.pending, typ, payload)
	l.pendingN++
}

// flush writes the pending frames unless another sender is already
// doing so; that flusher then writes them on its next pass. It is called,
// and returns, with l.mu held; the lock is released around each write.
func (l *link) flush() {
	if l.flushing {
		return
	}
	for len(l.pending) > 0 && l.conn != nil && l.quiescing == 0 {
		conn, buf, n := l.conn, l.pending, l.pendingN
		l.pending, l.spare, l.pendingN = l.spare[:0], nil, 0
		l.flushing = true
		l.mu.Unlock()
		_, err := conn.Write(buf)
		l.mu.Lock()
		l.flushing = false
		l.wrote(conn, n, err)
		if cap(buf) <= maxSpare {
			l.spare = buf[:0]
		}
	}
	l.idle.Broadcast()
}

// wrote accounts for one socket write of n frames on conn; a failed
// write closes that conn only. Its reliable frames stay in the outbox.
// l.mu held.
func (l *link) wrote(conn net.Conn, n int64, err error) {
	metSocketWrites.Inc()
	if err != nil {
		conn.Close()
		if l.conn == conn {
			l.conn = nil
		}
		return
	}
	metFramesSent.Add(n)
}

// quiesce waits out an in-flight flush; l.mu held. While it waits the
// flusher takes no further pass, so a stream of senders cannot hold it
// off, and whatever they queue is left pending for the caller.
func (l *link) quiesce() {
	if !l.flushing {
		return
	}
	if l.idle.L == nil {
		l.idle.L = &l.mu
	}
	l.quiescing++
	for l.flushing {
		l.idle.Wait()
	}
	l.quiescing--
}

// serve reads one connection until it breaks or the peer violates the
// protocol. It answers PING, applies the peer's ACKs, and hands each
// fresh reliable frame to dispatch (a duplicate replayed after a
// reconnect is dropped by sequence).
//
// ACKs are cumulative and sent once per read burst. Dispatching a
// reliable frame leaves an ACK owed; the loop queues it as soon as the
// buffer holds no whole frame, i.e. before the next readFrame could block
// on the socket, and writes it unless a flush is in flight, whose next
// write then carries it. That holds whatever frame type ended the burst:
// a burst that ends on PING, PONG or the peer's own ACK still pays what
// it owes. The ACK is built after dispatch, never from lastIn at write
// time (accept advances lastIn before dispatch), so it certifies
// processing: a wait on whenAcked at the peer (the synchronous Subscribe)
// returns only after the frame's dispatch here has returned.
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
		// Compact in place: the array is reused, and the cleared tail
		// lets the acknowledged payloads go.
		n := copy(l.outbox, l.outbox[i:])
		clear(l.outbox[n:])
		l.outbox = l.outbox[:n]
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
// lastSeq, so only genuinely unacknowledged frames go out again. It waits
// out an in-flight flush and drops what is pending: the reliable frames
// among it are in the outbox, and control frames belong to the old
// connection.
func (l *link) attach(conn net.Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.quiesce()
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	l.pending, l.pendingN = l.pending[:0], 0
	for _, f := range l.outbox {
		l.queue(f.typ, f.payload)
	}
	l.flush()
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

// close tears the current connection down unconditionally. Like a write
// in flight, an in-flight flush is waited out, and what senders queued
// behind it is written first, so a frame sent before close reaches the
// socket.
func (l *link) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.quiesce()
	conn := l.conn
	if conn == nil {
		return
	}
	if len(l.pending) > 0 {
		_, err := conn.Write(l.pending)
		l.wrote(conn, l.pendingN, err)
		l.pending, l.pendingN = l.pending[:0], 0
	}
	conn.Close()
	l.conn = nil
}
