package space

import (
	"testing"

	"ginflow/internal/hocl"
	"ginflow/internal/hoclflow"
	"ginflow/internal/mq"
)

// statusPayload builds a representative agent status push: a task tuple
// carrying SRC/DST/SRV/IN/RES plus a TRIGGER marker.
func statusPayload(t *testing.T) []hocl.Atom {
	t.Helper()
	sub := hoclflow.TaskAttrs{
		Name: "T3", Src: []string{"T1"}, Dst: []string{"T4"}, Service: "s1",
	}.SubSolution()
	if _, idx := sub.FindTuple(hoclflow.KeyRES); idx >= 0 {
		sub.ReplaceAt(idx, hocl.Tuple{hoclflow.KeyRES, hocl.NewSolution(hocl.Str("out-s1"), hocl.List{hocl.Int(1), hocl.Int(2)})})
	}
	return []hocl.Atom{
		hoclflow.TaskTuple("T3", sub),
		hoclflow.TriggerMarker("a1"),
	}
}

// TestStructuralApplyDoesNotAliasMutations pins the freeze contract from
// the consumer side: a snapshot taken from the space stays stable even if
// the snapshot's caller mutates it.
func TestSnapshotIsCopyOnWrite(t *testing.T) {
	sp := New()
	if !sp.ApplyMessage(mq.Message{Atoms: statusPayload(t)}) {
		t.Fatal("payload rejected")
	}
	before := sp.Snapshot().String()
	snap := sp.Snapshot()
	snap.Add(hocl.Ident("EXTRA"))
	for _, a := range snap.Atoms() {
		if tp, ok := a.(hocl.Tuple); ok && len(tp) == 2 {
			if sub, ok := tp[1].(*hocl.Solution); ok {
				sub.Add(hocl.Ident("DEEP"))
			}
		}
	}
	if got := sp.Snapshot().String(); got != before {
		t.Errorf("mutating a snapshot leaked into the space:\n%s\nwant\n%s", got, before)
	}
}
