// Package transport puts the GinFlow broker on a real network: a TCP
// listener (Server) fronts the in-process sharded broker, and a
// client-side RemoteBroker is an mq.Replayable (publish, subscribe, log
// replay) so agents run unchanged in a separate OS process.
// A worker process hosts agents through the Node runtime (Join), which
// receives its task assignments, workflow definition and tuning over the
// same connection.
//
// # Frame format
//
// Every frame is length-prefixed: a 4-byte big-endian length (counting
// the type byte and the payload, capped at 16 MiB), one type byte, then
// the payload. Payload integers are varints (uvarint unless noted),
// strings and byte blobs are uvarint-length-prefixed. Molecule payloads
// travel in the hocl wire codec (hocl.EncodeAtoms / hocl.DecodeAtoms).
// A RECORD has a PUBLISH's body: a message the worker delivered in
// process, which the server counts and retains but delivers to no one.
// Trace events are binary too (see encodeEvent); only the once-per-session
// ASSIGN and FAIL bodies are JSON documents. READY, START, STOP and DONE
// carry the session ID alone.
//
// Control frames (HELLO, WELCOME, PING, PONG, ACK) are connection-scoped
// and unsequenced. Every other frame is reliable: its payload starts
// with a per-direction uvarint sequence number, the sender keeps the
// frame in an outbox until the peer's cumulative ACK passes it, and a
// reconnect replays the outbox — so a dropped connection loses nothing
// and duplicates are discarded by sequence on the receiver.
//
// After the handshake every frame, reliable or control, goes through its
// link's combining writer: frames that several goroutines send while a
// socket write is in flight queue behind it and share the next write, so
// an ACK owed by the read loop rides in the same write as the data queued
// beside it.
//
// # Handshake and reconnect
//
// A client opens with HELLO{version, nodeID, lastSeq, name}; nodeID 0
// asks the server to assign a fresh node identity, a non-zero nodeID
// resumes an existing one after a connection drop. The server answers
// WELCOME{version, nodeID, lastSeq}. The lastSeq fields carry each
// side's highest received sequence number, acting as an implicit
// cumulative ACK that trims the peer's outbox before it replays.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// protocolVersion is the frame protocol version carried in HELLO and
// WELCOME; a mismatch fails the handshake. Version 3 made EVENT bodies
// binary (version 2 carried them as JSON); version 4 dropped DONE's JSON
// stats body; version 5 moved the assignment's crash injection into its
// chaos config; version 6 added RECORD; version 7 made every status
// push a full record (a version-6 worker would still send STATDELTA
// tuples, which the space no longer reads).
const protocolVersion = 7

// readBufSize is the per-connection read buffer: one socket read
// usually brings in a whole burst of frames.
const readBufSize = 32 << 10

// maxFrame bounds a frame's length prefix (type byte + payload). A peer
// announcing more is protocol-corrupt and the connection is dropped
// before any allocation.
const maxFrame = 16 << 20

// Frame types. Types below fSubscribe are connection control
// (unsequenced); fSubscribe and above are reliable frames whose payload
// starts with a sequence number.
const (
	fHello   byte = 1 // client→server: version, nodeID (0 = assign), lastSeq, name
	fWelcome byte = 2 // server→client: version, assigned nodeID, lastSeq
	fPing    byte = 3 // either direction: empty, answered with PONG
	fPong    byte = 4 // either direction: empty
	fAck     byte = 5 // either direction: cumulative received seq

	fSubscribe   byte = 16 // client→server: subID, topic
	fUnsubscribe byte = 17 // client→server: subID
	fPublish     byte = 18 // client→server: topic, data
	fBatch       byte = 19 // server→client: subID, count, messages
	fAssign      byte = 20 // server→client: session, assignment JSON
	fReady       byte = 21 // client→server: session
	fStart       byte = 22 // server→client: session
	fStop        byte = 23 // server→client: session
	fFail        byte = 24 // client→server: session, failure JSON
	fDone        byte = 25 // client→server: session
	fEvent       byte = 26 // client→server: session, binary trace event
	fLogReq      byte = 27 // client→server: reqID, topic
	fLogResp     byte = 28 // server→client: reqID, count, messages
	fRecord      byte = 29 // client→server: topic, data (as PUBLISH; delivered by the worker)

	fTypeMax byte = 29
)

// errFrame is the root of every frame-decode error; the fuzz harness
// asserts decoding either succeeds or returns an error wrapping it —
// never panics.
var errFrame = errors.New("transport: bad frame")

// appendFrame appends one encoded frame (length, type byte, payload) to
// dst.
func appendFrame(dst []byte, typ byte, payload []byte) ([]byte, error) {
	n := 1 + len(payload)
	if n > maxFrame {
		return dst, fmt.Errorf("%w: oversized frame (%d bytes)", errFrame, n)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = append(dst, typ)
	return append(dst, payload...), nil
}

// writeFrame writes one frame on its own, as a single Write. Only the
// handshake (HELLO, WELCOME) writes this way, before the connection is
// attached to a link; every later frame goes through the link's
// combining writer.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	buf, err := appendFrame(make([]byte, 0, 5+len(payload)), typ, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	metSocketWrites.Inc()
	if err == nil {
		metFramesSent.Inc()
	}
	return err
}

// readFrame reads one frame, returning its type and a freshly allocated
// payload (safe to retain or hand to goroutines). The length and type
// header is one read; both are validated before any payload allocation.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	got, err := io.ReadFull(r, hdr[:])
	n := binary.BigEndian.Uint32(hdr[:4])
	if got >= 4 && (n == 0 || n > maxFrame) {
		return 0, nil, fmt.Errorf("%w: length %d", errFrame, n)
	}
	if err != nil {
		return 0, nil, err
	}
	typ := hdr[4]
	if typ == 0 || typ > fTypeMax {
		return 0, nil, fmt.Errorf("%w: unknown type %d", errFrame, typ)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	metFramesReceived.Inc()
	return typ, payload, nil
}

// cursor is a bounds-checked reader over a frame payload. Every method
// returns an error instead of panicking, whatever the input — the
// property FuzzFrameDecode locks in.
type cursor struct {
	buf []byte
	off int
}

func (c *cursor) errf(format string, args ...any) error {
	return fmt.Errorf("%w: %s at offset %d", errFrame, fmt.Sprintf(format, args...), c.off)
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, c.errf("bad uvarint")
	}
	c.off += n
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		return 0, c.errf("bad varint")
	}
	c.off += n
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if len(c.buf)-c.off < 8 {
		return 0, c.errf("truncated uint64")
	}
	v := binary.BigEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v, nil
}

func (c *cursor) u8() (byte, error) {
	if c.off >= len(c.buf) {
		return 0, c.errf("truncated byte")
	}
	b := c.buf[c.off]
	c.off++
	return b, nil
}

// bytes returns a length-prefixed blob as a sub-slice of the payload
// (no copy; the payload is per-frame allocated, so retaining is safe).
func (c *cursor) bytes() ([]byte, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.buf)-c.off) {
		return nil, c.errf("blob length %d exceeds remaining %d", n, len(c.buf)-c.off)
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

func (c *cursor) str() (string, error) {
	b, err := c.bytes()
	return string(b), err
}

// done errors on trailing garbage, so a frame with extra bytes is
// rejected rather than silently half-read.
func (c *cursor) done() error {
	if c.off != len(c.buf) {
		return c.errf("%d trailing bytes", len(c.buf)-c.off)
	}
	return nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// helloFrame is the client's opening frame.
type helloFrame struct {
	version byte
	nodeID  uint64
	lastSeq uint64
	name    string
}

func encodeHello(h helloFrame) []byte {
	buf := []byte{h.version}
	buf = binary.AppendUvarint(buf, h.nodeID)
	buf = binary.AppendUvarint(buf, h.lastSeq)
	return appendString(buf, h.name)
}

func parseHello(payload []byte) (helloFrame, error) {
	c := cursor{buf: payload}
	var h helloFrame
	var err error
	if h.version, err = c.u8(); err != nil {
		return h, err
	}
	if h.nodeID, err = c.uvarint(); err != nil {
		return h, err
	}
	if h.lastSeq, err = c.uvarint(); err != nil {
		return h, err
	}
	if h.name, err = c.str(); err != nil {
		return h, err
	}
	return h, c.done()
}

// welcomeFrame is the server's handshake reply.
type welcomeFrame struct {
	version byte
	nodeID  uint64
	lastSeq uint64
}

func encodeWelcome(w welcomeFrame) []byte {
	buf := []byte{w.version}
	buf = binary.AppendUvarint(buf, w.nodeID)
	return binary.AppendUvarint(buf, w.lastSeq)
}

func parseWelcome(payload []byte) (welcomeFrame, error) {
	c := cursor{buf: payload}
	var w welcomeFrame
	var err error
	if w.version, err = c.u8(); err != nil {
		return w, err
	}
	if w.nodeID, err = c.uvarint(); err != nil {
		return w, err
	}
	if w.lastSeq, err = c.uvarint(); err != nil {
		return w, err
	}
	return w, c.done()
}

// wireMsg is one broker message inside a BATCH or LOGRESP frame; data is
// its atoms in the hocl wire codec.
type wireMsg struct {
	offset int64
	data   []byte
}

func appendWireMsg(dst []byte, m wireMsg) []byte {
	dst = binary.AppendVarint(dst, m.offset)
	return appendBytes(dst, m.data)
}

func (c *cursor) wireMsg() (wireMsg, error) {
	var m wireMsg
	var err error
	if m.offset, err = c.varint(); err != nil {
		return m, err
	}
	m.data, err = c.bytes()
	return m, err
}

// publishFrame is a client publish: one topic, one message's atoms in
// the hocl wire codec. A RECORD has the same body.
type publishFrame struct {
	topic string
	data  []byte
}

func encodePublish(seq uint64, p publishFrame) []byte {
	buf := binary.AppendUvarint(nil, seq)
	buf = appendString(buf, p.topic)
	return appendBytes(buf, p.data)
}

// parsePublish parses a PUBLISH or RECORD body (sequence already
// consumed).
func parsePublish(c *cursor) (publishFrame, error) {
	var p publishFrame
	var err error
	if p.topic, err = c.str(); err != nil {
		return p, err
	}
	if p.data, err = c.bytes(); err != nil {
		return p, err
	}
	return p, c.done()
}

// encodeMsgs appends a count-prefixed message list (BATCH and LOGRESP
// share the layout after their respective IDs).
func encodeMsgs(buf []byte, msgs []wireMsg) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(msgs)))
	for _, m := range msgs {
		buf = appendWireMsg(buf, m)
	}
	return buf
}

func (c *cursor) msgs() ([]wireMsg, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.buf)-c.off) {
		// Each message costs at least 2 bytes; a count beyond the
		// remaining payload is corrupt, rejected before allocation.
		return nil, c.errf("message count %d exceeds remaining %d bytes", n, len(c.buf)-c.off)
	}
	msgs := make([]wireMsg, 0, n)
	for i := uint64(0); i < n; i++ {
		m, err := c.wireMsg()
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, m)
	}
	return msgs, nil
}

// encodeSession encodes the session-ID-only bodies of READY, START, STOP
// and DONE.
func encodeSession(seq, session uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, seq), session)
}

// encodeSessionBlob encodes the (session, blob) bodies shared by ASSIGN
// and FAIL; the blob is a JSON document.
func encodeSessionBlob(seq, session uint64, blob []byte) []byte {
	buf := binary.AppendUvarint(nil, seq)
	buf = binary.AppendUvarint(buf, session)
	return appendBytes(buf, blob)
}

func parseSessionBlob(c *cursor) (uint64, []byte, error) {
	session, err := c.uvarint()
	if err != nil {
		return 0, nil, err
	}
	blob, err := c.bytes()
	if err != nil {
		return 0, nil, err
	}
	return session, blob, c.done()
}

// encodeEvent encodes an EVENT body: session, At as float64 bits (8
// bytes, big-endian), Kind, Task, Incarnation (varint), Info. The Node
// field is not sent; the server stamps it from the connection.
func encodeEvent(seq, session uint64, e NodeEvent) []byte {
	buf := make([]byte, 0, 24+len(e.Kind)+len(e.Task)+len(e.Info))
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, session)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(e.At))
	buf = appendString(buf, e.Kind)
	buf = appendString(buf, e.Task)
	buf = binary.AppendVarint(buf, int64(e.Incarnation))
	return appendString(buf, e.Info)
}

// parseEvent parses an EVENT body (sequence already consumed).
func parseEvent(c *cursor) (uint64, NodeEvent, error) {
	var e NodeEvent
	session, err := c.uvarint()
	if err != nil {
		return 0, e, err
	}
	bits, err := c.u64()
	if err != nil {
		return 0, e, err
	}
	e.At = math.Float64frombits(bits)
	if e.Kind, err = c.str(); err != nil {
		return 0, e, err
	}
	if e.Task, err = c.str(); err != nil {
		return 0, e, err
	}
	inc, err := c.varint()
	if err != nil {
		return 0, e, err
	}
	e.Incarnation = int(inc)
	if e.Info, err = c.str(); err != nil {
		return 0, e, err
	}
	return session, e, c.done()
}
