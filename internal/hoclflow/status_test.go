package hoclflow

import (
	"fmt"
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

// TestStatusDeltaRoundTrip: the retired delta tuple still renders to a
// molecule the wire codec round-trips, as the frozen codec probe
// encodes one beside a full record.
func TestStatusDeltaRoundTrip(t *testing.T) {
	d := StatusDelta{
		Task: "T3", Base: 0xdeadbeefcafef00d, Next: 42,
		RemovedHashes: []uint64{1, 2, 1 << 63},
		Added:         []hocl.Atom{hocl.Tuple{KeyRES, hocl.NewSolution(hocl.Str("out"))}},
		Inert:         true,
	}
	atom := d.Atom()
	tp, ok := atom.(hocl.Tuple)
	if !ok || len(tp) != 7 || !tp[0].Equal(KeySTATDELTA) || !tp[1].Equal(hocl.Ident("T3")) {
		t.Fatalf("wire form = %v", atom)
	}
	if removed, ok := tp[4].(hocl.List); !ok || len(removed) != 3 || !removed[2].Equal(hocl.Int(-1<<63)) {
		t.Errorf("removed hashes = %v", tp[4])
	}
	got, err := hocl.DecodeAtoms(hocl.AppendAtoms(nil, []hocl.Atom{atom}))
	if err != nil || len(got) != 1 || !got[0].Equal(atom) {
		t.Fatalf("codec round trip = %v, %v; want %v", got, err, atom)
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
	record(t, e, e.Encode(atoms, false), atoms)
	// Unchanged state: deduplicated.
	if p := e.Encode(atoms, false); p != nil {
		t.Errorf("unchanged state re-pushed: %v", p)
	}
}

// record checks that payload is the task's full Name:<...> record of
// want behind its VER header, and returns the recorded sub-solution.
func record(t *testing.T, e *StatusEncoder, payload []hocl.Atom, want []hocl.Atom) *hocl.Solution {
	t.Helper()
	tp, ok := body(t, e, payload).(hocl.Tuple)
	if !ok || len(tp) != 2 || !tp[0].Equal(hocl.Ident(e.Task)) {
		t.Fatalf("push is not a full record tuple: %v", payload[1])
	}
	sub, ok := tp[1].(*hocl.Solution)
	if !ok || !sub.Equal(hocl.NewSolution(want...)) {
		t.Fatalf("record = %v, want <%v>", tp[1], want)
	}
	return sub
}

// TestStatusEncoderPushesFullRecordOnSmallChange: a push after one
// tuple changes is the whole top level, and carries the inertness flag.
func TestStatusEncoderPushesFullRecordOnSmallChange(t *testing.T) {
	e := &StatusEncoder{Task: "T3"}
	atoms := statusAtoms()
	e.Encode(atoms, false)

	atoms[3] = hocl.Tuple{KeyRES, hocl.NewSolution(hocl.Str("out"))}
	if sub := record(t, e, e.Encode(atoms, true), atoms); !sub.Inert() {
		t.Error("inert flag lost")
	}
}

// TestStatusEncoderPushesFullRecordOnLargeChange: a push after a full
// rewrite is the new top level, and is not flagged inert unless asked.
func TestStatusEncoderPushesFullRecordOnLargeChange(t *testing.T) {
	e := &StatusEncoder{Task: "T3"}
	e.Encode(statusAtoms(), false)

	replaced := []hocl.Atom{
		hocl.Tuple{KeyRES, hocl.NewSolution(hocl.Str("a"))},
		hocl.Tuple{KeyIN, hocl.NewSolution(hocl.Str("b"))},
	}
	if sub := record(t, e, e.Encode(replaced, false), replaced); sub.Inert() {
		t.Error("inert flag set on a non-inert push")
	}
}

// TestStatusEncoderResetForcesFullSnapshot: after Reset an unchanged
// state is pushed again, as a full record.
func TestStatusEncoderResetForcesFullSnapshot(t *testing.T) {
	e := &StatusEncoder{Task: "T3"}
	atoms := statusAtoms()
	e.Encode(atoms, false)
	if p := e.Encode(atoms, false); p != nil {
		t.Fatalf("unchanged state re-pushed before Reset: %v", p)
	}
	e.Reset()
	record(t, e, e.Encode(atoms, false), atoms)
}

// TestStatusEncoderSnapshotsAddedAtoms: pushed records are frozen —
// mutating the agent's live solution after encoding must not reach
// atoms already on the wire.
func TestStatusEncoderSnapshotsAddedAtoms(t *testing.T) {
	e := &StatusEncoder{Task: "T3"}
	atoms := statusAtoms()
	e.Encode(atoms, false)
	live := hocl.NewSolution(hocl.Str("out"))
	atoms[3] = hocl.Tuple{KeyRES, live}
	sub := record(t, e, e.Encode(atoms, false), atoms)
	live.Add(hocl.Str("late-mutation"))
	res := Results(sub)
	if len(res) != 1 {
		t.Errorf("wire payload observed a post-encode mutation: %v", res)
	}
}

// TestDecodeStatusPushAllocs pins the cost of decoding one status push
// off the wire: the VER header plus the full record of a 16-source mesh
// task mid-workflow (8 inputs received, 8 pending). Each decoded
// solution takes the element slice the decoder built for it, so it
// costs its shell and that slice; one more allocation per solution means
// the decoder copies the elements again.
func TestDecodeStatusPushAllocs(t *testing.T) {
	const fan = 16
	var src, dst, in []hocl.Atom
	for i := 1; i <= fan; i++ {
		dst = append(dst, hocl.Ident(fmt.Sprintf("D%d", i)))
		if i <= fan/2 {
			in = append(in, hocl.Str(fmt.Sprintf("out-S%d", i)))
		} else {
			src = append(src, hocl.Ident(fmt.Sprintf("S%d", i)))
		}
	}
	inert := func(atoms ...hocl.Atom) *hocl.Solution {
		sol := hocl.NewSolution(atoms...)
		sol.SetInert(true)
		return sol
	}
	enc := StatusEncoder{Task: "N8_3"}
	push := enc.Encode([]hocl.Atom{
		hocl.Tuple{KeySRC, inert(src...)},
		hocl.Tuple{KeyDST, inert(dst...)},
		hocl.Tuple{KeySRV, hocl.Str("work")},
		hocl.Tuple{KeyIN, inert(in...)},
		hocl.Tuple{KeyRES, inert()},
	}, true)
	wire := hocl.AppendAtoms(nil, push)
	decoded, err := hocl.DecodeAtoms(wire)
	if err != nil {
		t.Fatal(err)
	}
	if hocl.Fingerprint(decoded...) != hocl.Fingerprint(push...) {
		t.Fatalf("decoded push %v differs from %v", decoded, push)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := hocl.DecodeAtoms(wire); err != nil {
			t.Fatal(err)
		}
	})
	if got != decodeStatusPushAllocs {
		t.Errorf("decoding a status push: %v allocs, want %d", got, decodeStatusPushAllocs)
	}
}

// decodeStatusPushAllocs is TestDecodeStatusPushAllocs's exact count
// (110 when each decoded solution copied its elements).
const decodeStatusPushAllocs = 106
