package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"ginflow/internal/hocl"
	"ginflow/internal/mq"
)

// DialConfig tunes a RemoteBroker connection.
type DialConfig struct {
	// Name is a human-readable label sent in the handshake (hostnames,
	// test case names); it never affects routing.
	Name string
	// PingInterval is the keepalive cadence; zero disables pings
	// (benchmarks measure round-trips, not keepalive noise).
	PingInterval time.Duration
}

// logTimeout bounds a Log replay round-trip.
const logTimeout = 10 * time.Second

// RemoteBroker is the client side of the network transport: an
// mq.Replayable whose publishes, subscriptions and log reads ride
// length-prefixed frames to a Server fronting the real broker. Agents
// run against it unchanged. It holds no per-topic state: counting,
// listing and purging topics is the serving broker's job.
//
// The connection self-heals: a broken socket triggers a background
// reconnect loop (capped exponential backoff) that re-handshakes with
// the server-assigned node ID, and the reliable link replays every
// unacknowledged frame in order — publishes and subscriptions issued
// during an outage are queued, never lost.
type RemoteBroker struct {
	addr string
	cfg  DialConfig
	link link

	mu       sync.Mutex
	closed   bool
	nodeID   uint64
	nextSub  uint64
	subs     map[uint64]*clientSub
	nextReq  uint64
	logWaits map[uint64]*logWait
	// ctrlQ queues session-control frames for the node runtime, and
	// ctrlSig (capacity 1) wakes it. The queue is unbounded so the read
	// loop never waits on the runtime, which may itself be waiting on
	// an ACK only the read loop can deliver (see link.serve).
	ctrlQ   []controlFrame
	ctrlSig chan struct{}

	closedCh chan struct{}
	wg       sync.WaitGroup
}

// clientSub is one client-side subscription: its topic and the push
// half of its mq.NewPushSubscription.
type clientSub struct {
	topic string
	push  func([]mq.Message)
}

// logWait is one pending Log round-trip: the reply channel and the
// requested topic (stamped onto the replayed messages, which travel
// without one).
type logWait struct {
	ch    chan []mq.Message
	topic string
}

// controlFrame is a decoded session-control frame (ASSIGN/START/STOP)
// handed to the node runtime.
type controlFrame struct {
	typ     byte
	session uint64
	blob    []byte
}

// Dial connects to a transport server, performs the HELLO/WELCOME
// handshake (receiving a server-assigned node ID) and starts the
// keepalive and reconnect machinery.
func Dial(addr string, cfg DialConfig) (*RemoteBroker, error) {
	rb := &RemoteBroker{
		addr:     addr,
		cfg:      cfg,
		subs:     map[uint64]*clientSub{},
		logWaits: map[uint64]*logWait{},
		ctrlSig:  make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
	conn, r, err := rb.connect()
	if err != nil {
		return nil, err
	}
	rb.wg.Add(1)
	go rb.run(conn, r)
	return rb, nil
}

// NodeID returns the server-assigned node identity (stable across
// reconnects).
func (rb *RemoteBroker) NodeID() uint64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.nodeID
}

// connect dials and handshakes once, attaching the socket to the
// reliable link (which replays any unacknowledged frames). The returned
// reader is the connection's only one: it was created before the
// handshake, so bytes buffered past WELCOME are kept.
func (rb *RemoteBroker) connect() (net.Conn, *bufio.Reader, error) {
	conn, err := net.DialTimeout("tcp", rb.addr, handshakeTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: dial %s: %w", rb.addr, err)
	}
	r := bufio.NewReaderSize(conn, readBufSize)
	rb.mu.Lock()
	h := helloFrame{version: protocolVersion, nodeID: rb.nodeID, lastSeq: rb.link.received(), name: rb.cfg.Name}
	rb.mu.Unlock()
	if err := writeFrame(conn, fHello, encodeHello(h)); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("transport: handshake write: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	typ, payload, err := readFrame(r)
	if err != nil || typ != fWelcome {
		conn.Close()
		return nil, nil, fmt.Errorf("transport: handshake: no welcome (type %d, err %v)", typ, err)
	}
	w, err := parseWelcome(payload)
	if err != nil || w.version != protocolVersion {
		conn.Close()
		return nil, nil, fmt.Errorf("transport: handshake: bad welcome (version %d, want %d, err %v)", w.version, protocolVersion, err)
	}
	conn.SetReadDeadline(time.Time{})
	rb.mu.Lock()
	rb.nodeID = w.nodeID
	rb.mu.Unlock()
	rb.link.onAck(w.lastSeq)
	rb.link.attach(conn)
	return conn, r, nil
}

// run owns the connection lifecycle: serve reads until the socket
// breaks, then reconnect with capped backoff until Close.
func (rb *RemoteBroker) run(conn net.Conn, r *bufio.Reader) {
	defer rb.wg.Done()
	backoff := 50 * time.Millisecond
	for {
		stopPing := rb.startPing()
		rb.link.serve(r, rb.dispatch)
		stopPing()
		rb.link.detach(conn)
		for {
			if rb.isClosed() {
				return
			}
			select {
			case <-rb.closedCh:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			next, nextR, err := rb.connect()
			if err == nil {
				conn, r = next, nextR
				backoff = 50 * time.Millisecond
				metReconnects.Inc()
				break
			}
			metRetryDials.Inc()
		}
	}
}

// startPing launches the keepalive ticker for the current connection
// epoch; the returned stop function ends it.
func (rb *RemoteBroker) startPing() func() {
	if rb.cfg.PingInterval <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	rb.wg.Add(1)
	go func() {
		defer rb.wg.Done()
		t := time.NewTicker(rb.cfg.PingInterval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-rb.closedCh:
				return
			case <-t.C:
				rb.link.sendControl(fPing, nil)
			}
		}
	}()
	return func() { close(stop) }
}

// dispatch handles one fresh reliable frame from the server.
func (rb *RemoteBroker) dispatch(typ byte, c *cursor) error {
	switch typ {
	case fBatch:
		subID, err := c.uvarint()
		if err != nil {
			return err
		}
		msgs, err := c.msgs()
		if err != nil {
			return err
		}
		if err := c.done(); err != nil {
			return err
		}
		rb.mu.Lock()
		cs := rb.subs[subID]
		rb.mu.Unlock()
		if cs == nil {
			return nil // cancelled locally while the batch was in flight
		}
		batch := make([]mq.Message, 0, len(msgs))
		for _, w := range msgs {
			m, err := fromWireMsg(cs.topic, w)
			if err != nil {
				continue // poisoned entry: drop it, keep the stream alive
			}
			batch = append(batch, m)
		}
		if len(batch) > 0 {
			cs.push(batch)
		}
		return nil

	case fLogResp:
		reqID, err := c.uvarint()
		if err != nil {
			return err
		}
		msgs, err := c.msgs()
		if err != nil {
			return err
		}
		if err := c.done(); err != nil {
			return err
		}
		rb.mu.Lock()
		lw := rb.logWaits[reqID]
		delete(rb.logWaits, reqID)
		rb.mu.Unlock()
		if lw != nil {
			out := make([]mq.Message, 0, len(msgs))
			for _, w := range msgs {
				m, err := fromWireMsg(lw.topic, w)
				if err != nil {
					continue
				}
				out = append(out, m)
			}
			lw.ch <- out
		}
		return nil

	case fAssign, fStart, fStop:
		var cf controlFrame
		cf.typ = typ
		var err error
		if typ == fAssign {
			cf.session, cf.blob, err = parseSessionBlob(c)
		} else {
			if cf.session, err = c.uvarint(); err == nil {
				err = c.done()
			}
		}
		if err != nil {
			return err
		}
		rb.mu.Lock()
		rb.ctrlQ = append(rb.ctrlQ, cf)
		rb.mu.Unlock()
		select {
		case rb.ctrlSig <- struct{}{}:
		default:
		}
		return nil
	}
	return nil // tolerate unknown server frames
}

// takeControl hands the node runtime every session-control frame queued
// so far, in arrival order; ctrlSig signals that there may be some.
func (rb *RemoteBroker) takeControl() []controlFrame {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	q := rb.ctrlQ
	rb.ctrlQ = nil
	return q
}

// sendSession sends a session-scoped frame that carries only the
// session ID (READY/DONE).
func (rb *RemoteBroker) sendSession(typ byte, session uint64) {
	rb.link.send(typ, func(seq uint64) []byte { return encodeSession(seq, session) })
}

// sendSessionBlob sends a session-scoped frame with a JSON body (FAIL).
func (rb *RemoteBroker) sendSessionBlob(typ byte, session uint64, blob []byte) {
	rb.link.send(typ, func(seq uint64) []byte {
		return encodeSessionBlob(seq, session, blob)
	})
}

// sendEvent forwards one trace event in the binary EVENT layout.
func (rb *RemoteBroker) sendEvent(session uint64, e NodeEvent) {
	rb.link.send(fEvent, func(seq uint64) []byte {
		return encodeEvent(seq, session, e)
	})
}

// PublishAtoms sends a message, encoded with the hocl wire codec, to
// the serving broker.
func (rb *RemoteBroker) PublishAtoms(topic string, atoms []hocl.Atom) error {
	return rb.sendMessage(fPublish, topic, atoms)
}

// record tells the serving broker about a message this worker delivered
// in process: the broker counts and retains it but delivers it to no
// one.
func (rb *RemoteBroker) record(topic string, atoms []hocl.Atom) error {
	return rb.sendMessage(fRecord, topic, atoms)
}

// sendMessage sends one message frame (PUBLISH or RECORD). A message
// too large for one frame fails here and is never sent.
func (rb *RemoteBroker) sendMessage(typ byte, topic string, atoms []hocl.Atom) error {
	if rb.isClosed() {
		return mq.ErrClosed
	}
	p := publishFrame{topic: topic, data: hocl.EncodeAtoms(atoms)}
	_, err := rb.link.send(typ, func(seq uint64) []byte { return encodePublish(seq, p) })
	return err
}

// Subscribe opens a remote subscription on the serving broker and
// returns a push-fed local Subscription; cancelling it unsubscribes
// remotely.
//
// Subscribe is synchronous like the in-process broker: it waits for the
// server's post-dispatch ACK, so a publish issued right after Subscribe
// returns, from any process, can never beat the subscription to the
// broker. During an outage this waits for the reconnect to replay the
// frame.
func (rb *RemoteBroker) Subscribe(topic string) (*mq.Subscription, error) {
	var id uint64
	sub, push := mq.NewPushSubscription(func() { rb.unsubscribe(id) })
	id, seq, err := rb.subscribe(topic, push)
	if err != nil {
		return nil, err
	}
	rb.link.release()
	if err := rb.awaitAck(seq); err != nil {
		return nil, err
	}
	return sub, nil
}

// subscribe registers push as the receiver of topic's remote deliveries
// and queues the SUBSCRIBE on the link without writing it: the caller
// releases it, alone or with a burst of others. It returns the
// subscription's ID (for unsubscribe) and the frame's sequence (for
// awaitAck).
func (rb *RemoteBroker) subscribe(topic string, push func([]mq.Message)) (id, seq uint64, err error) {
	rb.mu.Lock()
	if rb.closed {
		rb.mu.Unlock()
		return 0, 0, mq.ErrClosed
	}
	rb.nextSub++
	id = rb.nextSub
	rb.subs[id] = &clientSub{topic: topic, push: push}
	rb.mu.Unlock()
	seq, err = rb.link.hold(fSubscribe, func(seq uint64) []byte {
		buf := binary.AppendUvarint(nil, seq)
		buf = binary.AppendUvarint(buf, id)
		return appendString(buf, topic)
	})
	if err != nil {
		rb.mu.Lock()
		delete(rb.subs, id)
		rb.mu.Unlock()
	}
	return id, seq, err
}

// awaitAck waits until the server has processed every frame up to seq.
func (rb *RemoteBroker) awaitAck(seq uint64) error {
	select {
	case <-rb.link.whenAcked(seq):
		return nil
	case <-rb.closedCh:
		return mq.ErrClosed
	}
}

func (rb *RemoteBroker) unsubscribe(id uint64) {
	rb.mu.Lock()
	_, known := rb.subs[id]
	delete(rb.subs, id)
	closed := rb.closed
	rb.mu.Unlock()
	if !known || closed {
		return
	}
	rb.link.send(fUnsubscribe, func(seq uint64) []byte {
		buf := binary.AppendUvarint(nil, seq)
		return binary.AppendUvarint(buf, id)
	})
}

// Log fetches a topic's retained log from the serving broker (the
// mq.Replayable contract agents use for inbox replay after a crash). A
// serving broker that is not replayable answers with an empty log. Log
// fails with mq.ErrClosed when the client closes first, and with a
// timeout error when no answer comes within logTimeout.
func (rb *RemoteBroker) Log(topic string) ([]mq.Message, error) {
	rb.mu.Lock()
	if rb.closed {
		rb.mu.Unlock()
		return nil, mq.ErrClosed
	}
	rb.nextReq++
	id := rb.nextReq
	lw := &logWait{ch: make(chan []mq.Message, 1), topic: topic}
	rb.logWaits[id] = lw
	rb.mu.Unlock()
	rb.link.send(fLogReq, func(seq uint64) []byte {
		buf := binary.AppendUvarint(nil, seq)
		buf = binary.AppendUvarint(buf, id)
		return appendString(buf, topic)
	})
	t := time.NewTimer(logTimeout)
	defer t.Stop()
	var err error
	select {
	case msgs := <-lw.ch:
		return msgs, nil
	case <-t.C:
		err = fmt.Errorf("transport: log of %s: no answer within %v", topic, logTimeout)
	case <-rb.closedCh:
		err = mq.ErrClosed
	}
	rb.mu.Lock()
	delete(rb.logWaits, id)
	rb.mu.Unlock()
	return nil, err
}

func (rb *RemoteBroker) isClosed() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.closed
}

// Close tears the connection down and stops the reconnect loop.
// Outstanding local subscriptions simply stop receiving.
func (rb *RemoteBroker) Close() error {
	rb.mu.Lock()
	if rb.closed {
		rb.mu.Unlock()
		return nil
	}
	rb.closed = true
	rb.mu.Unlock()
	close(rb.closedCh)
	rb.link.close()
	rb.wg.Wait()
	return nil
}
