package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"testing"

	"ginflow/internal/hocl"
)

// frameBytes renders a full wire frame (length header, type, payload).
func frameBytes(t testing.TB, typ byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, typ, payload); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	h := helloFrame{version: protocolVersion, nodeID: 7, lastSeq: 42, name: "worker-a"}
	if err := writeFrame(&buf, fHello, encodeHello(h)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil || typ != fHello {
		t.Fatalf("readFrame: type %d err %v", typ, err)
	}
	got, err := parseHello(payload)
	if err != nil || got != h {
		t.Fatalf("parseHello: %+v err %v", got, err)
	}

	w := welcomeFrame{version: protocolVersion, nodeID: 7, lastSeq: 9}
	gw, err := parseWelcome(encodeWelcome(w))
	if err != nil || gw != w {
		t.Fatalf("parseWelcome: %+v err %v", gw, err)
	}
}

func TestPublishRoundTrip(t *testing.T) {
	atoms := []hocl.Atom{hocl.Str("hello"), hocl.Int(3)}
	p := publishFrame{topic: "wf1.space", data: hocl.EncodeAtoms(atoms)}
	payload := encodePublish(99, p)
	c := cursor{buf: payload}
	seq, err := c.uvarint()
	if err != nil || seq != 99 {
		t.Fatalf("seq %d err %v", seq, err)
	}
	got, err := parsePublish(&c)
	if err != nil {
		t.Fatal(err)
	}
	if got.topic != p.topic || !bytes.Equal(got.data, p.data) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	back, err := hocl.DecodeAtoms(got.data)
	if err != nil || len(back) != 2 {
		t.Fatalf("decode atoms: %v %v", back, err)
	}
}

// TestRecordRoundTrip: a RECORD carries a PUBLISH's body under its own
// type byte, and every truncation of it is a decode error.
func TestRecordRoundTrip(t *testing.T) {
	atoms := []hocl.Atom{hocl.Ident("PASS"), hocl.Int(7)}
	p := publishFrame{topic: "wf3.sa.T2", data: hocl.EncodeAtoms(atoms)}
	typ, payload, err := readFrame(bytes.NewReader(frameBytes(t, fRecord, encodePublish(12, p))))
	if err != nil || typ != fRecord {
		t.Fatalf("readFrame: type %d err %v", typ, err)
	}
	c := cursor{buf: payload}
	if seq, err := c.uvarint(); err != nil || seq != 12 {
		t.Fatalf("seq %d err %v", seq, err)
	}
	got, err := parsePublish(&c)
	if err != nil || got.topic != p.topic || !bytes.Equal(got.data, p.data) {
		t.Fatalf("parsePublish: %+v err %v", got, err)
	}
	for n := 0; n < len(payload); n++ {
		if err := parseFrame(fRecord, payload[:n]); !errors.Is(err, errFrame) {
			t.Errorf("truncated to %d of %d bytes: err = %v, want errFrame", n, len(payload), err)
		}
	}
}

func TestMsgsRoundTrip(t *testing.T) {
	msgs := []wireMsg{
		{offset: -1, data: hocl.EncodeAtoms([]hocl.Atom{hocl.Ident("DONE")})},
		{offset: 12, data: hocl.EncodeAtoms(nil)},
	}
	buf := encodeMsgs(binary.AppendUvarint(nil, 5), msgs)
	c := cursor{buf: buf}
	if id, err := c.uvarint(); err != nil || id != 5 {
		t.Fatalf("id %d err %v", id, err)
	}
	got, err := c.msgs()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.done(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].offset != -1 || got[1].offset != 12 ||
		!bytes.Equal(got[0].data, msgs[0].data) || !bytes.Equal(got[1].data, msgs[1].data) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadFrameRejectsBeforeAllocation(t *testing.T) {
	cases := map[string][]byte{
		"zero length":    {0, 0, 0, 0},
		"oversized":      {0xff, 0xff, 0xff, 0xff, fPing},
		"type zero":      frameBytesRaw(3, []byte{0, 'x', 'y'}),
		"type too large": frameBytesRaw(2, []byte{200, 'x'}),
	}
	for name, data := range cases {
		if _, _, err := readFrame(bytes.NewReader(data)); !errors.Is(err, errFrame) {
			t.Errorf("%s: err = %v, want errFrame", name, err)
		}
	}
	// A torn frame (header promises more than arrives) is an io error,
	// not a decode error: the connection died mid-frame.
	torn := frameBytes(t, fPing, nil)[:3]
	if _, _, err := readFrame(bytes.NewReader(torn)); err == nil {
		t.Error("torn frame: no error")
	}
}

// TestEventRoundTrip: an EVENT body decodes to what was encoded, and
// every truncation of it, like a trailing byte, is a decode error.
func TestEventRoundTrip(t *testing.T) {
	e := NodeEvent{At: 12.375, Kind: "service-invoked", Task: "N2_8", Incarnation: 2, Info: "svc"}
	payload := encodeEvent(41, 7, e)
	c := cursor{buf: payload}
	if seq, err := c.uvarint(); err != nil || seq != 41 {
		t.Fatalf("seq %d err %v", seq, err)
	}
	session, got, err := parseEvent(&c)
	if err != nil || session != 7 || got != e {
		t.Fatalf("parseEvent: session %d %+v err %v", session, got, err)
	}
	for n := 0; n < len(payload); n++ {
		if err := parseFrame(fEvent, payload[:n]); !errors.Is(err, errFrame) {
			t.Errorf("truncated to %d of %d bytes: err = %v, want errFrame", n, len(payload), err)
		}
	}
	if err := parseFrame(fEvent, append(payload, 0)); !errors.Is(err, errFrame) {
		t.Errorf("trailing byte: err = %v, want errFrame", err)
	}
}

// reliable reports whether a frame type carries a sequence number.
func reliable(typ byte) bool { return typ >= fSubscribe }

// parseFrame validates a full frame payload of the given type,
// discarding the result — the shared validation core of FuzzFrameDecode.
// It exercises every per-type parser exactly as the server and client
// read loops do.
func parseFrame(typ byte, payload []byte) error {
	c := cursor{buf: payload}
	if reliable(typ) {
		if _, err := c.uvarint(); err != nil {
			return err
		}
	}
	switch typ {
	case fHello:
		_, err := parseHello(payload)
		return err
	case fWelcome:
		_, err := parseWelcome(payload)
		return err
	case fPing, fPong:
		return c.done()
	case fAck:
		if _, err := c.uvarint(); err != nil {
			return err
		}
		return c.done()
	case fSubscribe:
		if _, err := c.uvarint(); err != nil {
			return err
		}
		if _, err := c.str(); err != nil {
			return err
		}
		return c.done()
	case fUnsubscribe:
		if _, err := c.uvarint(); err != nil {
			return err
		}
		return c.done()
	case fPublish, fRecord:
		_, err := parsePublish(&c)
		return err
	case fBatch, fLogResp:
		if _, err := c.uvarint(); err != nil { // subID / reqID
			return err
		}
		if _, err := c.msgs(); err != nil {
			return err
		}
		return c.done()
	case fLogReq:
		if _, err := c.uvarint(); err != nil {
			return err
		}
		if _, err := c.str(); err != nil {
			return err
		}
		return c.done()
	case fAssign, fFail:
		_, _, err := parseSessionBlob(&c)
		return err
	case fEvent:
		_, _, err := parseEvent(&c)
		return err
	case fReady, fStart, fStop, fDone:
		if _, err := c.uvarint(); err != nil {
			return err
		}
		return c.done()
	}
	return fmt.Errorf("%w: unknown type %d", errFrame, typ)
}

// frameBytesRaw builds a frame with an arbitrary (possibly invalid)
// body, bypassing writeFrame's checks.
func frameBytesRaw(n uint32, body []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, n)
	return append(out, body...)
}

func TestParseFrameRejectsTrailingGarbage(t *testing.T) {
	body := binary.AppendUvarint(nil, 1) // seq
	body = binary.AppendUvarint(body, 3) // subID
	body = append(body, 0xde, 0xad)      // trailing garbage
	if err := parseFrame(fUnsubscribe, body); !errors.Is(err, errFrame) {
		t.Fatalf("err = %v, want errFrame", err)
	}
}

// v1Publish builds a protocol-version-1 PUBLISH payload, which carried
// a kind byte (0 textual, 1 structural) between the topic and the data.
func v1Publish(seq uint64, topic string, kind byte, data []byte) []byte {
	buf := appendString(binary.AppendUvarint(nil, seq), topic)
	return appendBytes(append(buf, kind), data)
}

// TestParseFrameRejectsV1Publish: the HELLO version check keeps old
// peers out, but a version-1 PUBLISH that did arrive is refused by the
// parser rather than mis-framed — the old kind byte reads as a data
// length that leaves trailing bytes.
func TestParseFrameRejectsV1Publish(t *testing.T) {
	atoms := hocl.EncodeAtoms([]hocl.Atom{hocl.Int(1)})
	for kind, data := range map[byte][]byte{0: []byte("DONE"), 1: atoms} {
		if err := parseFrame(fPublish, v1Publish(1, "t", kind, data)); !errors.Is(err, errFrame) {
			t.Errorf("kind %d: err = %v, want errFrame", kind, err)
		}
	}
}

// FuzzFrameDecode locks in the frame parser's resilience contract:
// whatever bytes arrive — torn frames, oversized lengths, bad control
// tags, corrupt counts — reading and parsing either succeeds or returns
// an error wrapping errFrame (or an io error for truncation); it never
// panics and never allocates unbounded memory from a hostile length.
func FuzzFrameDecode(f *testing.F) {
	seq := func(body []byte) []byte {
		return append(binary.AppendUvarint(nil, 1), body...)
	}
	wire := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}

	atoms := hocl.EncodeAtoms([]hocl.Atom{hocl.Str("res"), hocl.Int(42)})
	msgsBody := encodeMsgs(binary.AppendUvarint(seq(nil), 2), []wireMsg{
		{offset: -1, data: hocl.EncodeAtoms(nil)},
		{offset: 3, data: atoms},
	})

	// One valid frame of every type.
	f.Add(wire(fHello, encodeHello(helloFrame{version: protocolVersion, nodeID: 0, lastSeq: 0, name: "n"})))
	f.Add(wire(fWelcome, encodeWelcome(welcomeFrame{version: protocolVersion, nodeID: 4, lastSeq: 2})))
	f.Add(wire(fPing, nil))
	f.Add(wire(fPong, nil))
	f.Add(wire(fAck, binary.AppendUvarint(nil, 17)))
	f.Add(wire(fSubscribe, appendString(binary.AppendUvarint(seq(nil), 1), "wf1.space")))
	f.Add(wire(fUnsubscribe, binary.AppendUvarint(seq(nil), 1)))
	f.Add(wire(fPublish, encodePublish(1, publishFrame{topic: "sa.t", data: atoms})))
	f.Add(wire(fRecord, encodePublish(1, publishFrame{topic: "wf1.sa.t", data: atoms})))
	f.Add(wire(fBatch, msgsBody))
	f.Add(wire(fLogResp, msgsBody))
	f.Add(wire(fLogReq, appendString(binary.AppendUvarint(seq(nil), 9), "sa.t")))
	f.Add(wire(fAssign, encodeSessionBlob(1, 3, []byte(`{"tasks":["A"]}`))))
	f.Add(wire(fReady, binary.AppendUvarint(seq(nil), 3)))
	f.Add(wire(fStart, binary.AppendUvarint(seq(nil), 3)))
	f.Add(wire(fStop, binary.AppendUvarint(seq(nil), 3)))
	f.Add(wire(fFail, encodeSessionBlob(1, 3, []byte(`{"err":"x"}`))))
	f.Add(wire(fDone, encodeSession(1, 3)))
	f.Add(wire(fEvent, encodeEvent(1, 3, NodeEvent{At: 1.5, Kind: "agent-started", Task: "T1", Incarnation: 1})))

	// Hostile shapes.
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                                                        // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, fPing})                                     // oversized length
	f.Add(frameBytesRaw(2, []byte{0, 'x'}))                                          // type zero
	f.Add(frameBytesRaw(2, []byte{200, 'x'}))                                        // bad control tag
	f.Add(wire(fPing, nil)[:3])                                                      // torn header
	f.Add(wire(fHello, []byte{1})[:6])                                               // torn payload
	f.Add(wire(fPublish, v1Publish(1, "sa.t", 1, atoms)))                            // version-1 layout, structural
	f.Add(wire(fPublish, v1Publish(2, "sa.t", 0, []byte("hi"))))                     // version-1 layout, textual
	f.Add(wire(fBatch, binary.AppendUvarint(seq(nil), ^uint64(0))))                  // absurd count
	f.Add(wire(fUnsubscribe, append(binary.AppendUvarint(seq(nil), 1), 0xde, 0xad))) // trailing bytes
	two := append(wire(fPing, nil), wire(fAck, binary.AppendUvarint(nil, 1))...)
	f.Add(two) // multiple frames per input

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := readFrame(r)
			if err != nil {
				if !errors.Is(err, errFrame) && !isIOErr(err) {
					t.Fatalf("readFrame: unexpected error class: %v", err)
				}
				return
			}
			if err := parseFrame(typ, payload); err != nil && !errors.Is(err, errFrame) {
				t.Fatalf("parseFrame(%d): unexpected error class: %v", typ, err)
			}
		}
	})
}

func isIOErr(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// TestDesignStatesProtocolVersion keeps DESIGN.md's "Frames and the
// reliable link" on the version the code speaks.
func TestDesignStatesProtocolVersion(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`The layout is protocol\s+version (\d+)\.`).FindSubmatch(doc)
	if m == nil {
		t.Fatal(`DESIGN.md no longer states "The layout is protocol version N."`)
	}
	if v, _ := strconv.Atoi(string(m[1])); v != protocolVersion {
		t.Errorf("DESIGN.md states protocol version %d, the code speaks %d", v, protocolVersion)
	}
}
