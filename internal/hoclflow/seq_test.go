package hoclflow

import (
	"testing"

	"ginflow/internal/hocl"
)

func TestSeqMarkerRoundTrip(t *testing.T) {
	origin, n, ok := DecodeSeq(SeqMarker("T2", 17))
	if !ok || origin != "T2" || n != 17 {
		t.Fatalf("DecodeSeq(SeqMarker) = %q, %d, %v", origin, n, ok)
	}
	for _, not := range []hocl.Atom{
		hocl.Ident("SEQ"),
		hocl.Tuple{KeySEQ, hocl.Ident("T2")},
		hocl.Tuple{KeySEQ, hocl.Str("T2"), hocl.Int(1)},
		hocl.Tuple{KeyPASS, hocl.Ident("T2"), hocl.Int(1)},
		SeqMarker("T2", 1).(hocl.Tuple)[:2],
	} {
		if _, _, ok := DecodeSeq(not); ok {
			t.Errorf("DecodeSeq accepted %v", not)
		}
	}
}

func TestVersionMarkerRoundTrip(t *testing.T) {
	task, inc, push, ok := DecodeVersion(VersionMarker("T5", 2, 9))
	if !ok || task != "T5" || inc != 2 || push != 9 {
		t.Fatalf("DecodeVersion(VersionMarker) = %q, %d, %d, %v", task, inc, push, ok)
	}
	for _, not := range []hocl.Atom{
		hocl.Ident("VER"),
		hocl.Tuple{KeyVER, hocl.Ident("T5"), hocl.Int(1)},
		hocl.Tuple{KeyVER, hocl.Str("T5"), hocl.Int(1), hocl.Int(1)},
		SeqMarker("T5", 1),
	} {
		if _, _, _, ok := DecodeVersion(not); ok {
			t.Errorf("DecodeVersion accepted %v", not)
		}
	}
}

// TestStatusEncoderVersionsAdvance proves the VER stream is strictly
// monotone within an incarnation, including across Reset — the property
// the space's stale-push gate relies on.
func TestStatusEncoderVersionsAdvance(t *testing.T) {
	e := &StatusEncoder{Task: "T1", Incarnation: 3}
	atoms := statusAtoms()
	var last int64
	bump := func(payload []hocl.Atom) {
		t.Helper()
		task, inc, push, ok := DecodeVersion(payload[0])
		if !ok || task != "T1" || inc != 3 {
			t.Fatalf("bad header %v", payload[0])
		}
		if push <= last {
			t.Fatalf("push %d did not advance past %d", push, last)
		}
		last = push
	}
	bump(e.Encode(atoms, false))
	atoms[3] = hocl.Tuple{KeyRES, hocl.NewSolution(hocl.Str("out"))}
	bump(e.Encode(atoms, false))
	e.Reset() // the forced re-push must still outrank prior pushes
	bump(e.Encode(atoms, false))
}
