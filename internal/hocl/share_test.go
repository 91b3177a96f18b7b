package hocl

import (
	"testing"
)

func sampleTaskSub() *Solution {
	return NewSolution(
		Tuple{Ident("SRC"), NewSolution(Ident("T1"), Ident("T2"))},
		Tuple{Ident("DST"), NewSolution(Ident("T4"))},
		Tuple{Ident("SRV"), Str("s1")},
		Tuple{Ident("RES"), NewSolution(Str("out"), List{Int(1), Int(2)})},
		Int(42),
	)
}

func TestSnapshotIsIndependentlyMutable(t *testing.T) {
	orig := sampleTaskSub()
	origStr := orig.String()
	snap := orig.SnapshotSolution()
	if !snap.Equal(orig) {
		t.Fatalf("snapshot not equal: %v vs %v", snap, orig)
	}

	// Mutating the snapshot — including nested solutions — must not leak
	// into the original.
	snap.Add(Ident("EXTRA"))
	if tp, idx := snap.FindTuple(Ident("SRC")); idx >= 0 {
		tp[1].(*Solution).Add(Ident("T9"))
	}
	if orig.String() != origStr {
		t.Errorf("original changed after snapshot mutation:\n%s\nwant\n%s", orig, origStr)
	}

	// And the other way round.
	orig.RemoveIndices([]int{0})
	if snap.Len() != 6 {
		t.Errorf("snapshot changed after original mutation: %v", snap)
	}
}

func TestSnapshotSharesSolutionFreeAtoms(t *testing.T) {
	tup := Tuple{Ident("SRV"), Str("s1")}
	if got := Snapshot(tup); &got.(Tuple)[0] == &tup[0] {
		// Indexing proves same backing array; a solution-free tuple must
		// be returned as-is.
		t.Log("shared, as expected")
	}
	got, copied := snapshotAtom(tup)
	if copied {
		t.Errorf("solution-free tuple was copied")
	}
	if !got.Equal(tup) {
		t.Errorf("snapshot altered the atom: %v", got)
	}
}

func TestSnapshotPreservesInertness(t *testing.T) {
	sol := NewSolution(Int(1))
	sol.SetInert(true)
	if !sol.SnapshotSolution().Inert() {
		t.Error("snapshot dropped the inert flag")
	}
}

func TestShareable(t *testing.T) {
	inert := NewSolution(Str("r"))
	inert.SetInert(true)
	active := NewSolution(Str("r"))

	cases := []struct {
		atom Atom
		want bool
	}{
		{Int(1), true},
		{Str("x"), true},
		{Tuple{Ident("PASS"), Ident("T1"), inert}, true},
		{Tuple{Ident("PASS"), Ident("T1"), active}, false},
		{List{inert}, true},
		{List{active}, false},
		{inert, true},
		{active, false},
	}
	for _, c := range cases {
		if got := Shareable(c.atom); got != c.want {
			t.Errorf("Shareable(%v) = %v, want %v", c.atom, got, c.want)
		}
	}

	// A non-inert solution buried inside an inert one still blocks
	// sharing: a rule elsewhere could destructure the outer solution and
	// re-emit the inner one into an active context.
	outer := NewSolution(active)
	outer.SetInert(true)
	if Shareable(outer) {
		t.Error("inert solution containing an active one must not be shareable")
	}
}

func TestFingerprintDistinguishesStates(t *testing.T) {
	a := sampleTaskSub()
	b := sampleTaskSub()
	if Fingerprint(a.Atoms()...) != Fingerprint(b.Atoms()...) {
		t.Error("identical states fingerprint differently")
	}
	b.Add(Str("new"))
	if Fingerprint(a.Atoms()...) == Fingerprint(b.Atoms()...) {
		t.Error("different states fingerprint equal")
	}

	// Kind confusion must not collide: 1 vs "1" vs <1> vs [1].
	fps := map[uint64]string{}
	for _, c := range []Atom{Int(1), Str("1"), Ident("A1"), NewSolution(Int(1)), List{Int(1)}} {
		fp := Fingerprint(c)
		if prev, dup := fps[fp]; dup {
			t.Errorf("fingerprint collision: %v vs %s", c, prev)
		}
		fps[fp] = c.String()
	}
}

func TestFingerprintSeesRuleBodyChanges(t *testing.T) {
	// Rules can ride inside nested solutions of a status payload (they
	// are only stripped at top level), so two rules that differ only in
	// guard or products must not collide — same name/arity included.
	a := MustParseRuleBody("max", "replace x, y by x if x >= y", nil)
	b := MustParseRuleBody("max", "replace x, y by y if x >= y", nil)
	c := MustParseRuleBody("max", "replace x, y by x if x <= y", nil)
	if Fingerprint(NewSolution(a)) == Fingerprint(NewSolution(b)) {
		t.Error("rules with different products fingerprint equal")
	}
	if Fingerprint(NewSolution(a)) == Fingerprint(NewSolution(c)) {
		t.Error("rules with different guards fingerprint equal")
	}
	a2 := MustParseRuleBody("max", "replace x, y by x if x >= y", nil)
	if Fingerprint(NewSolution(a)) != Fingerprint(NewSolution(a2)) {
		t.Error("structurally equal rules fingerprint differently")
	}
}

// TestFingerprintOrderInsensitiveTopLevel: permuting the top-level
// multiset must not change the fingerprint (a permutation-only reduction
// is chemically the same state), while genuinely different multisets —
// including ones differing only in multiplicity — must not collide.
func TestFingerprintOrderInsensitiveTopLevel(t *testing.T) {
	a, b, c := Str("a"), Int(7), Tuple{Ident("STATUS"), Str("completed")}
	if Fingerprint(a, b, c) != Fingerprint(c, a, b) {
		t.Error("permuted multisets fingerprint differently")
	}
	if Fingerprint(a, b, c) != Fingerprint(b, c, a) {
		t.Error("permuted multisets fingerprint differently (second rotation)")
	}
	if Fingerprint(a, b) == Fingerprint(a, b, c) {
		t.Error("different multisets fingerprint equal")
	}
	// Multiplicity matters: {a, a, b} vs {a, b, b} vs {a, b}.
	if Fingerprint(a, a, b) == Fingerprint(a, b, b) {
		t.Error("multisets differing only in multiplicity collide")
	}
	if Fingerprint(a, a, b) == Fingerprint(a, b) {
		t.Error("duplicate atom not reflected in fingerprint")
	}
	// The empty multiset is distinct from any singleton.
	if Fingerprint() == Fingerprint(a) {
		t.Error("empty multiset collides with singleton")
	}
}

// TestFingerprintNestedOrderStillCounts: below the top level, element
// order is structurally meaningful (tuples and lists are ordered on the
// wire), so swapping elements inside a nested container must change the
// fingerprint.
func TestFingerprintNestedOrderStillCounts(t *testing.T) {
	if Fingerprint(List{Int(1), Int(2)}) == Fingerprint(List{Int(2), Int(1)}) {
		t.Error("list element order ignored")
	}
	if Fingerprint(Tuple{Str("x"), Str("y")}) == Fingerprint(Tuple{Str("y"), Str("x")}) {
		t.Error("tuple element order ignored")
	}
}

func TestFingerprintIgnoresInertFlag(t *testing.T) {
	a := NewSolution(Int(1))
	fp := Fingerprint(a)
	a.SetInert(true)
	if Fingerprint(a) != fp {
		t.Error("inert flag changed the fingerprint")
	}
}

func TestGenCountsMutations(t *testing.T) {
	s := NewSolution(Int(1))
	g := s.Gen()
	s.Add(Int(2))
	if s.Gen() == g {
		t.Error("Add did not bump the generation")
	}
	g = s.Gen()
	s.RemoveIndices([]int{0})
	if s.Gen() == g {
		t.Error("RemoveIndices did not bump the generation")
	}
	g = s.Gen()
	s.ReplaceAt(0, Int(3))
	if s.Gen() == g {
		t.Error("ReplaceAt did not bump the generation")
	}
	g = s.Gen()
	s.SetInert(true)
	if s.Gen() != g {
		t.Error("SetInert must not bump the generation")
	}
}

// TestAtomHashMatchesFingerprint pins the invariant the delta status
// protocol rests on: folding per-atom hashes through MultisetHash yields
// exactly Fingerprint of the same atoms, and Remove undoes Add.
func TestAtomHashMatchesFingerprint(t *testing.T) {
	atoms := sampleTaskSub().Atoms()
	var m MultisetHash
	for _, a := range atoms {
		m.Add(AtomHash(a))
	}
	if got, want := m.Fingerprint(), Fingerprint(atoms...); got != want {
		t.Errorf("MultisetHash fingerprint %#x != Fingerprint %#x", got, want)
	}

	// Removing one atom lands on the fingerprint of the rest.
	m.Remove(AtomHash(atoms[0]))
	if got, want := m.Fingerprint(), Fingerprint(atoms[1:]...); got != want {
		t.Errorf("after Remove: %#x != %#x", got, want)
	}

	// The zero value hashes the empty multiset.
	var empty MultisetHash
	if got, want := empty.Fingerprint(), Fingerprint(); got != want {
		t.Errorf("empty: %#x != %#x", got, want)
	}
}

// TestAtomHashOrderInsensitiveViaMultiset: the multiset combine is
// order-insensitive (add order does not matter), while distinct atoms
// hash apart.
func TestAtomHashOrderInsensitiveViaMultiset(t *testing.T) {
	a, b, c := Atom(Int(1)), Atom(Str("x")), Atom(Tuple{Ident("RES"), NewSolution(Int(2))})
	var m1, m2 MultisetHash
	for _, x := range []Atom{a, b, c} {
		m1.Add(AtomHash(x))
	}
	for _, x := range []Atom{c, a, b} {
		m2.Add(AtomHash(x))
	}
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Error("add order changed the multiset fingerprint")
	}
	if AtomHash(a) == AtomHash(b) {
		t.Error("distinct atoms share a hash")
	}
	// A snapshot hashes identically to its original (structural hash).
	if AtomHash(c) != AtomHash(Snapshot(c)) {
		t.Error("snapshot changed the atom hash")
	}
}
