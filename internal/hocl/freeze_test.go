package hocl

import (
	"sync"
	"testing"
	"unsafe"
)

// frozenTaskSub is sampleTaskSub with every solution inert and frozen.
func frozenTaskSub(t *testing.T) *Solution {
	t.Helper()
	s := sampleTaskSub()
	for _, sub := range s.nestedSolutions() {
		sub.SetInert(true)
	}
	s.SetInert(true)
	if !Freeze(s) {
		t.Fatal("Freeze refused an all-inert tree")
	}
	return s
}

func TestFreezeKeepsSolutionAt96Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Solution{}); got != 96 {
		t.Fatalf("Solution is %d bytes, want 96: the frozen flag must fit in inert's padding", got)
	}
}

// mustPanic runs f and fails unless it panics with the frozen-mutation
// value.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != frozenMutation {
			t.Errorf("%s on a frozen solution: recovered %v, want a %q panic", name, r, frozenMutation)
		}
	}()
	f()
}

func TestFreezeMutatorsPanic(t *testing.T) {
	s := frozenTaskSub(t)
	before, gen := s.String(), s.Gen()
	mustPanic(t, "Add", func() { s.Add(Int(1)) })
	mustPanic(t, "RemoveIndices", func() { s.RemoveIndices([]int{0}) })
	mustPanic(t, "RemoveFirst", func() { s.RemoveFirst(Int(42)) })
	mustPanic(t, "ReplaceAt", func() { s.ReplaceAt(0, Int(1)) })
	mustPanic(t, "SetInert(false)", func() { s.SetInert(false) })
	tp, _ := s.FindTuple(Ident("SRC"))
	mustPanic(t, "nested Add", func() { tp[1].(*Solution).Add(Ident("T9")) })
	if s.String() != before || s.Gen() != gen || !s.Inert() {
		t.Errorf("a refused mutation changed the solution: %v (gen %d -> %d)", s, gen, s.Gen())
	}
	// Setting the flag a frozen solution already has is no mutation.
	s.SetInert(true)
	// Mutators that change nothing do not panic either.
	s.Add()
	s.RemoveIndices(nil)
}

func TestFreezeSnapshotIsIdentity(t *testing.T) {
	s := frozenTaskSub(t)
	if got := s.SnapshotSolution(); got != s {
		t.Error("SnapshotSolution of a frozen solution copied it")
	}
	if got := Snapshot(s); got != Atom(s) {
		t.Error("Snapshot of a frozen solution copied it")
	}
	pass := Tuple{Ident("PASS"), Ident("T1"), s}
	if got := Snapshot(pass).(Tuple); &got[0] != &pass[0] {
		t.Error("Snapshot of a tuple holding only frozen solutions copied the tuple")
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = s.SnapshotSolution()
		_ = Snapshot(s)
	})
	if allocs != 0 {
		t.Errorf("snapshotting a frozen solution allocates %v times, want 0", allocs)
	}
	// A clone is a fresh, mutable copy.
	c := s.CloneSolution()
	c.Add(Int(7))
	if s.Len() == c.Len() {
		t.Error("mutating a clone of a frozen solution reached the original")
	}
}

func TestFreezeRefusesActiveTree(t *testing.T) {
	active := NewSolution(Str("r"))
	inner := NewSolution(Int(1))
	inner.SetInert(true)
	outer := NewSolution(Tuple{Ident("RES"), inner}, List{active})
	outer.SetInert(true)
	if Freeze(outer) {
		t.Fatal("Freeze accepted a tree holding an active solution")
	}
	// Nothing was frozen: every solution still mutates.
	for _, s := range []*Solution{outer, inner, active} {
		if s.frozen {
			t.Errorf("refused Freeze froze %v", s)
		}
	}
	inner.Add(Int(2))
	outer.Add(Int(3))
	if !Freeze(Int(1)) || !Freeze(Tuple{Ident("SRV"), Str("s")}) {
		t.Error("Freeze refused an atom without solutions")
	}
}

func TestFreezeShareableWithoutWalk(t *testing.T) {
	// A frozen solution is shareable on its flag alone. (Freeze never
	// builds this tree; the literal shows Shareable does not descend.)
	s := &Solution{elems: []Atom{NewSolution(Int(1))}, inert: true, frozen: true}
	if !Shareable(s) || !Shareable(Tuple{Ident("PASS"), Ident("T1"), s}) {
		t.Error("Shareable walked into a frozen solution")
	}
}

func TestFreezeDecodedInertSolutions(t *testing.T) {
	inert := NewSolution(Str("out"), Tuple{Ident("N"), NewSolution(Int(1))})
	inert.elems[1].(Tuple)[1].(*Solution).SetInert(true)
	inert.SetInert(true)
	mixed := NewSolution(Int(2)) // inert, but holding an active solution
	mixed.Add(NewSolution(Int(3)))
	mixed.SetInert(true)
	atoms, err := DecodeAtoms(EncodeAtoms([]Atom{
		Tuple{Ident("PASS"), Ident("T1"), inert},
		NewSolution(Int(4)),
		mixed,
	}))
	if err != nil {
		t.Fatal(err)
	}
	pass := atoms[0].(Tuple)[2].(*Solution)
	if !pass.frozen || !pass.At(1).(Tuple)[1].(*Solution).frozen {
		t.Error("decoded inert solutions are not frozen")
	}
	if atoms[1].(*Solution).frozen {
		t.Error("decoded active solution was frozen")
	}
	if m := atoms[2].(*Solution); m.frozen || !m.Inert() {
		t.Errorf("decoded inert solution holding an active one: frozen %v, inert %v; want unfrozen and inert", m.frozen, m.Inert())
	}
}

// TestFreezeSharedAcrossReducers hands one frozen PASS payload to eight
// engines reducing concurrently, as worker-local delivery fans one
// result out to several consumers on the real clock. Run under -race it
// proves reduction only reads what it shares.
func TestFreezeSharedAcrossReducers(t *testing.T) {
	res := NewSolution(Str("out-T1"), List{Int(1), Int(2)})
	res.SetInert(true)
	pass := Tuple{Ident("PASS"), Ident("T1"), res}
	if !Freeze(pass) {
		t.Fatal("Freeze refused the payload")
	}
	recv := MustParseRuleBody("gw_recv", "replace PASS:t:<*res>, SRC:<t, *src>, IN:<*win> by SRC:<*src>, IN:<*res, *win>", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sol := NewSolution(recv, Tuple{Ident("SRC"), NewSolution(Ident("T1"))}, Tuple{Ident("IN"), NewSolution()}, pass)
			if err := NewEngine().Reduce(sol); err != nil {
				t.Error(err)
				return
			}
			in, _ := sol.FindTuple(Ident("IN"))
			if in == nil || !in[1].(*Solution).Contains(Str("out-T1")) {
				t.Errorf("gw_recv did not consume the shared payload: %v", sol)
			}
		}()
	}
	wg.Wait()
	if res.Len() != 2 || !res.Inert() {
		t.Errorf("reduction changed the shared payload: %v", res)
	}
}
