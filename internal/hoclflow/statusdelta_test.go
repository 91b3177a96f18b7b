package hoclflow

import (
	"testing"

	"ginflow/internal/hocl"
)

func statusAtoms() []hocl.Atom {
	return []hocl.Atom{
		hocl.Tuple{KeySRC, hocl.NewSolution(hocl.Ident("T1"), hocl.Ident("T2"))},
		hocl.Tuple{KeyDST, hocl.NewSolution(hocl.Ident("T4"))},
		hocl.Tuple{KeySRV, hocl.Str("s1")},
		hocl.Tuple{KeyRES, hocl.NewSolution()},
	}
}

func TestStatusDeltaRoundTrip(t *testing.T) {
	d := StatusDelta{
		Task: "T3", Base: 0xdeadbeefcafef00d, Next: 42,
		RemovedHashes: []uint64{1, 2, 1 << 63},
		Added:         []hocl.Atom{hocl.Tuple{KeyRES, hocl.NewSolution(hocl.Str("out"))}},
		Inert:         true,
	}
	got, ok := DecodeStatusDelta(d.Atom())
	if !ok {
		t.Fatal("round trip failed to decode")
	}
	if got.Task != d.Task || got.Base != d.Base || got.Next != d.Next || got.Inert != d.Inert {
		t.Errorf("decoded %+v, want %+v", got, d)
	}
	if len(got.RemovedHashes) != 3 || got.RemovedHashes[2] != 1<<63 {
		t.Errorf("removed hashes = %v", got.RemovedHashes)
	}
	if len(got.Added) != 1 || !got.Added[0].Equal(d.Added[0]) {
		t.Errorf("added = %v", got.Added)
	}
}

func TestDecodeStatusDeltaRejectsOtherAtoms(t *testing.T) {
	for _, a := range []hocl.Atom{
		hocl.Int(1),
		hocl.Tuple{hocl.Ident("T1"), hocl.NewSolution()}, // full snapshot
		hocl.Tuple{KeySTATDELTA, hocl.Ident("T1")},       // short
		hocl.Tuple{KeyTRIGGER, hocl.Str("a1")},           // marker
		hocl.Tuple{ // right arity, wrong element types
			KeySTATDELTA, hocl.Str("T1"), hocl.Int(0), hocl.Int(0),
			hocl.List{}, hocl.List{}, hocl.Bool(false),
		},
		hocl.Tuple{ // non-Int removal hash
			KeySTATDELTA, hocl.Ident("T1"), hocl.Int(0), hocl.Int(0),
			hocl.List{hocl.Str("nope")}, hocl.List{}, hocl.Bool(false),
		},
	} {
		if _, ok := DecodeStatusDelta(a); ok {
			t.Errorf("decoded non-delta atom %v", a)
		}
	}
}

// body strips and validates the VER header every encoder payload leads
// with, returning the status body atom.
func body(t *testing.T, e *StatusEncoder, payload []hocl.Atom) hocl.Atom {
	t.Helper()
	if len(payload) != 2 {
		t.Fatalf("payload = %v, want [VER header, body]", payload)
	}
	task, inc, push, ok := DecodeVersion(payload[0])
	if !ok || task != e.Task || inc != int64(e.Incarnation) || push <= 0 {
		t.Fatalf("payload header %v does not version task %s", payload[0], e.Task)
	}
	return payload[1]
}

func TestStatusEncoderFirstPushIsFullSnapshot(t *testing.T) {
	e := &StatusEncoder{Task: "T3"}
	atoms := statusAtoms()
	payload := e.Encode(atoms, false)
	tp, ok := body(t, e, payload).(hocl.Tuple)
	if !ok || len(tp) != 2 || !tp[0].Equal(hocl.Ident("T3")) {
		t.Fatalf("first push is not a full snapshot tuple: %v", payload[0])
	}
	sub, ok := tp[1].(*hocl.Solution)
	if !ok || sub.Len() != len(atoms) {
		t.Fatalf("snapshot sub = %v", tp[1])
	}
	// Unchanged state: deduplicated.
	if p := e.Encode(atoms, false); p != nil {
		t.Errorf("unchanged state re-pushed: %v", p)
	}
}

func TestStatusEncoderEmitsDeltaForSmallChange(t *testing.T) {
	e := &StatusEncoder{Task: "T3"}
	atoms := statusAtoms()
	e.Encode(atoms, false)

	// One tuple changes: RES gains a result.
	oldRES := atoms[3]
	newRES := hocl.Tuple{KeyRES, hocl.NewSolution(hocl.Str("out"))}
	atoms[3] = newRES
	payload := e.Encode(atoms, true)
	d, ok := DecodeStatusDelta(body(t, e, payload))
	if !ok {
		t.Fatalf("change did not encode as delta: %v", payload)
	}
	if len(d.RemovedHashes) != 1 || d.RemovedHashes[0] != hocl.AtomHash(oldRES) {
		t.Errorf("removed = %v, want hash of %v", d.RemovedHashes, oldRES)
	}
	if len(d.Added) != 1 || !d.Added[0].Equal(newRES) {
		t.Errorf("added = %v", d.Added)
	}
	if !d.Inert {
		t.Error("inert flag lost")
	}
	if d.Base != hocl.Fingerprint(statusAtoms()...) || d.Next != hocl.Fingerprint(atoms...) {
		t.Error("delta fingerprints do not anchor the old and new states")
	}
}

func TestStatusEncoderFallsBackToFullOnLargeChange(t *testing.T) {
	e := &StatusEncoder{Task: "T3"}
	e.Encode(statusAtoms(), false)

	// Everything changes: a delta would ship more than a snapshot.
	replaced := []hocl.Atom{
		hocl.Tuple{KeyRES, hocl.NewSolution(hocl.Str("a"))},
		hocl.Tuple{KeyIN, hocl.NewSolution(hocl.Str("b"))},
	}
	payload := e.Encode(replaced, false)
	b := body(t, e, payload)
	if _, ok := DecodeStatusDelta(b); ok {
		t.Fatal("full-rewrite state encoded as delta")
	}
	tp, ok := b.(hocl.Tuple)
	if !ok || len(tp) != 2 {
		t.Fatalf("fallback is not a full snapshot: %v", b)
	}
}

func TestStatusEncoderResetForcesFullSnapshot(t *testing.T) {
	e := &StatusEncoder{Task: "T3"}
	atoms := statusAtoms()
	e.Encode(atoms, false)
	atoms[3] = hocl.Tuple{KeyRES, hocl.NewSolution(hocl.Str("out"))}
	if _, ok := DecodeStatusDelta(body(t, e, e.Encode(atoms, false))); !ok {
		t.Fatal("expected a delta before Reset")
	}
	e.Reset()
	payload := e.Encode(atoms, false)
	if _, ok := DecodeStatusDelta(body(t, e, payload)); ok {
		t.Error("post-Reset push is a delta, want full snapshot")
	}
}

// TestStatusEncoderSnapshotsAddedAtoms: delta payloads must be frozen —
// mutating the agent's live solution after encoding must not reach atoms
// already on the wire.
func TestStatusEncoderSnapshotsAddedAtoms(t *testing.T) {
	e := &StatusEncoder{Task: "T3"}
	atoms := statusAtoms()
	e.Encode(atoms, false)
	live := hocl.NewSolution(hocl.Str("out"))
	atoms[3] = hocl.Tuple{KeyRES, live}
	payload := e.Encode(atoms, false)
	d, ok := DecodeStatusDelta(body(t, e, payload))
	if !ok {
		t.Fatal("expected delta")
	}
	live.Add(hocl.Str("late-mutation"))
	added := d.Added[0].(hocl.Tuple)[1].(*hocl.Solution)
	if added.Len() != 1 {
		t.Errorf("wire payload observed a post-encode mutation: %v", added)
	}
}

// TestResyncMarkerRoundTrip covers the RESYNC control molecule's codec.
func TestResyncMarkerRoundTrip(t *testing.T) {
	m := ResyncMarker("T7")
	task, ok := DecodeResync(m)
	if !ok || task != "T7" {
		t.Fatalf("DecodeResync(ResyncMarker) = %q, %v", task, ok)
	}
	for _, not := range []hocl.Atom{
		hocl.Ident("RESYNC"),
		hocl.Tuple{KeyRESYNC},
		hocl.Tuple{KeyRESYNC, hocl.Str("T7")},
		hocl.Tuple{KeyPASS, hocl.Ident("T7")},
	} {
		if _, ok := DecodeResync(not); ok {
			t.Errorf("DecodeResync accepted %v", not)
		}
	}
}
