package space

import (
	"testing"

	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
)

// versioned wraps a full-snapshot body in a VER header.
func versioned(task string, inc, push int64, atoms []hocl.Atom) []hocl.Atom {
	body := fullSnapshotPayload(task, atoms, false)
	return append([]hocl.Atom{hoclflow.VersionMarker(task, inc, push)}, body...)
}

func resState(v string) []hocl.Atom {
	return []hocl.Atom{hocl.Tuple{hoclflow.KeyRES, hocl.NewSolution(hocl.Str(v))}}
}

// msgWith wraps atoms as one structural broker message.
func msgWith(atoms ...hocl.Atom) mq.Message {
	return mq.Message{Atoms: atoms}
}

// TestSpaceDropsStaleVersions: a delayed or redelivered status push —
// one whose (incarnation, push) does not advance the task's recorded
// version — must not roll the recorded state back.
func TestSpaceDropsStaleVersions(t *testing.T) {
	s := New()
	applyPayload(s, versioned("T1", 0, 1, resState("v1")))
	applyPayload(s, versioned("T1", 0, 3, resState("v3")))
	fp := s.StateFingerprint()

	// Redelivered duplicate of push 3, delayed push 2: both dropped whole.
	applyPayload(s, versioned("T1", 0, 3, resState("dup")))
	applyPayload(s, versioned("T1", 0, 2, resState("v2")))

	res := s.Results("T1")
	if len(res) != 1 || !res[0].Equal(hocl.Str("v3")) {
		t.Fatalf("stale push overwrote state: %v", res)
	}
	if got := s.StateFingerprint(); got != fp {
		t.Fatalf("stale pushes changed the state: %#x -> %#x", fp, got)
	}

	// A later incarnation outranks any push count of an earlier one.
	applyPayload(s, versioned("T1", 1, 1, resState("respawned")))
	if res := s.Results("T1"); len(res) != 1 || !res[0].Equal(hocl.Str("respawned")) {
		t.Fatalf("new incarnation's push dropped: %v", res)
	}
	applyPayload(s, versioned("T1", 0, 99, resState("zombie")))
	if res := s.Results("T1"); !res[0].Equal(hocl.Str("respawned")) {
		t.Fatalf("old incarnation's push accepted after respawn: %v", res)
	}
}

// TestSpaceResetVersionsReopensGate: recovery replays journaled history
// (advancing versions) and then resets the gate so the resumed agents'
// incarnation-0 pushes are accepted again.
func TestSpaceResetVersionsReopensGate(t *testing.T) {
	s := New()
	applyPayload(s, versioned("T1", 2, 5, resState("pre-crash")))
	applyPayload(s, versioned("T1", 0, 1, resState("ignored")))
	if !s.Results("T1")[0].Equal(hocl.Str("pre-crash")) {
		t.Fatal("gate should reject the lower incarnation before reset")
	}
	s.ResetVersions()
	applyPayload(s, versioned("T1", 0, 1, resState("resumed")))
	if !s.Results("T1")[0].Equal(hocl.Str("resumed")) {
		t.Fatal("post-reset push rejected")
	}
}

// TestSpaceDeduplicatesMarkers: a duplicated delivery of an idempotent
// marker must not grow the marker multiset (fingerprint stability under
// chaos).
func TestSpaceDeduplicatesMarkers(t *testing.T) {
	s := New()
	trigger := hocl.Tuple{hoclflow.KeyTRIGGER, hocl.Str("a1")}
	s.ApplyMessage(msgWith(trigger))
	fp := s.StateFingerprint()
	s.ApplyMessage(msgWith(trigger))
	if got := s.StateFingerprint(); got != fp {
		t.Fatalf("duplicate marker changed the fingerprint: %#x -> %#x", fp, got)
	}
	if n := s.Snapshot().Len(); n != 1 {
		t.Fatalf("marker multiset grew to %d", n)
	}
	other := hocl.Tuple{hoclflow.KeyTRIGGER, hocl.Str("a2")}
	s.ApplyMessage(msgWith(other))
	if n := s.Snapshot().Len(); n != 2 {
		t.Fatalf("distinct marker not recorded: %d", n)
	}
}
