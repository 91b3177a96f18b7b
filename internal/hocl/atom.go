package hocl

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Kind discriminates the concrete type of an Atom.
type Kind int

const (
	KindInt Kind = iota
	KindFloat
	KindStr
	KindBool
	KindIdent
	KindTuple
	KindList
	KindSolution
	KindRule
)

var kindNames = [...]string{
	KindInt:      "int",
	KindFloat:    "float",
	KindStr:      "string",
	KindBool:     "bool",
	KindIdent:    "ident",
	KindTuple:    "tuple",
	KindList:     "list",
	KindSolution: "solution",
	KindRule:     "rule",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Atom is an element of an HOCL solution. Atoms are immutable except for
// Solution, whose contents evolve under reduction; Clone produces a deep
// copy safe to mutate or to ship to another goroutine.
type Atom interface {
	Kind() Kind
	// Equal reports structural equality. Two Solutions are equal when they
	// contain equal atoms with equal multiplicities, regardless of order.
	Equal(Atom) bool
	// Clone returns a deep copy. Immutable atoms may return themselves.
	Clone() Atom
	// String renders the atom in the parseable ASCII syntax.
	String() string
}

// Int is an integer atom.
type Int int64

// Float is a floating-point atom.
type Float float64

// Str is a string atom.
type Str string

// Bool is a boolean atom.
type Bool bool

// Ident is a symbolic constant, written as an identifier with a leading
// upper-case letter: task names (T1), reserved workflow keywords (SRC, DST,
// ERROR, ADAPT), and user-defined markers.
type Ident string

// Tuple is an ordered group of two or more atoms, written A:B:C. GinFlow
// uses tuples keyed by a leading Ident, e.g. SRC:<T1> or MVSRC:T4:T2:T2P.
type Tuple []Atom

// List is an ordered sequence of atoms, written [a, b, c]. Lists are an
// HOCLflow extension (§III-A): plain HOCL has no native list type.
type List []Atom

func (Int) Kind() Kind       { return KindInt }
func (Float) Kind() Kind     { return KindFloat }
func (Str) Kind() Kind       { return KindStr }
func (Bool) Kind() Kind      { return KindBool }
func (Ident) Kind() Kind     { return KindIdent }
func (Tuple) Kind() Kind     { return KindTuple }
func (List) Kind() Kind      { return KindList }
func (*Solution) Kind() Kind { return KindSolution }
func (*Rule) Kind() Kind     { return KindRule }

func (a Int) Equal(b Atom) bool   { o, ok := b.(Int); return ok && a == o }
func (a Str) Equal(b Atom) bool   { o, ok := b.(Str); return ok && a == o }
func (a Bool) Equal(b Atom) bool  { o, ok := b.(Bool); return ok && a == o }
func (a Ident) Equal(b Atom) bool { o, ok := b.(Ident); return ok && a == o }

func (a Float) Equal(b Atom) bool {
	o, ok := b.(Float)
	return ok && (a == o || (math.IsNaN(float64(a)) && math.IsNaN(float64(o))))
}

func (a Tuple) Equal(b Atom) bool {
	o, ok := b.(Tuple)
	if !ok || len(a) != len(o) {
		return false
	}
	for i := range a {
		if !a[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

func (a List) Equal(b Atom) bool {
	o, ok := b.(List)
	if !ok || len(a) != len(o) {
		return false
	}
	for i := range a {
		if !a[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

func (a Int) Clone() Atom   { return a }
func (a Float) Clone() Atom { return a }
func (a Str) Clone() Atom   { return a }
func (a Bool) Clone() Atom  { return a }
func (a Ident) Clone() Atom { return a }

func (a Tuple) Clone() Atom {
	c := make(Tuple, len(a))
	for i, e := range a {
		c[i] = e.Clone()
	}
	return c
}

func (a List) Clone() Atom {
	c := make(List, len(a))
	for i, e := range a {
		c[i] = e.Clone()
	}
	return c
}

// Solution is a multiset of atoms: the chemical "solution" in which
// reactions occur. The zero value is an empty solution ready to use.
//
// A Solution tracks an inertness flag maintained by the reduction engine:
// a solution is inert when no rule it contains can fire and all of its
// sub-solutions are inert. Mutating the solution clears the flag.
//
// A frozen solution (Freeze) is inert, may be shared by any number of
// owners and goroutines, and is never mutated again: every mutator
// panics on it, and Snapshot returns it as is.
//
// A Solution also tracks a generation counter bumped on every structural
// mutation. The reduction engine keeps per-solution caches (the indices
// of contained rules and the list of reachable nested solutions) that are
// invalidated by the counter, so an unchanged solution is never rescanned.
type Solution struct {
	elems []Atom
	inert bool
	// frozen marks a shared, immutable solution (share.go). It fits in
	// inert's padding word, so the struct stays 96 bytes.
	frozen bool

	// gen counts structural mutations (DESIGN.md "Incremental reduction").
	gen uint64
	// cacheGen tags ruleIdx/nested with gen+1 at build time, so the
	// caches are valid while cacheGen == gen+1: any mutation bumps gen
	// past them, and the zero value (gen 0, cacheGen 0) is never valid —
	// solutions built by struct literal are safe without ceremony.
	cacheGen uint64
	// ruleIdx holds the elems indices of *Rule atoms.
	ruleIdx []int
	// nested holds the solutions reachable from elems through tuples and
	// lists without crossing another solution boundary.
	nested []*Solution
}

// mutated records a structural mutation: the solution is active again and
// the generation counter moves past the engine caches, invalidating them.
// Every mutator calls it before touching elems, so a frozen solution
// panics unchanged.
func (s *Solution) mutated() {
	if s.frozen {
		panic(frozenMutation)
	}
	s.gen++
	s.inert = false
}

// Gen returns the solution's generation: a counter bumped on every
// structural mutation (Add, RemoveIndices, ReplaceAt). Snapshots and
// clones start a fresh lineage; the counter only orders mutations of one
// solution instance.
func (s *Solution) Gen() uint64 { return s.gen }

// ruleIndices returns the cached elems indices of the rules in s.
func (s *Solution) ruleIndices() []int {
	if s.cacheGen != s.gen+1 {
		s.buildCaches()
	}
	return s.ruleIdx
}

// nestedSolutions returns the cached solutions reachable from s through
// tuples and lists without crossing another solution boundary (the
// engine's recursion handles deeper levels).
func (s *Solution) nestedSolutions() []*Solution {
	if s.cacheGen != s.gen+1 {
		s.buildCaches()
	}
	return s.nested
}

func (s *Solution) buildCaches() {
	s.ruleIdx = s.ruleIdx[:0]
	// Clear the old list, not only truncate it: a solution consumed
	// since the last build must not stay reachable from the spare
	// capacity.
	clear(s.nested)
	s.nested = s.nested[:0]
	for i, a := range s.elems {
		switch v := a.(type) {
		case *Rule:
			s.ruleIdx = append(s.ruleIdx, i)
		case *Solution:
			s.nested = append(s.nested, v)
		case Tuple:
			collectNested([]Atom(v), &s.nested)
		case List:
			collectNested([]Atom(v), &s.nested)
		}
	}
	s.cacheGen = s.gen + 1
}

func collectNested(elems []Atom, out *[]*Solution) {
	for _, e := range elems {
		switch v := e.(type) {
		case *Solution:
			*out = append(*out, v)
		case Tuple:
			collectNested([]Atom(v), out)
		case List:
			collectNested([]Atom(v), out)
		}
	}
}

// NewSolution returns a solution containing the given atoms.
func NewSolution(atoms ...Atom) *Solution {
	s := &Solution{}
	s.Add(atoms...)
	return s
}

// solutionOver builds an active solution that owns elems: unlike
// NewSolution it neither copies nor appends. The caller gives elems up.
func solutionOver(elems []Atom) *Solution { return &Solution{elems: elems} }

// Len returns the number of atoms in the solution.
func (s *Solution) Len() int { return len(s.elems) }

// At returns the i-th atom. The order is an implementation detail: a
// multiset has no intrinsic order, but a stable iteration order keeps
// reduction deterministic for a fixed seed.
func (s *Solution) At(i int) Atom { return s.elems[i] }

// Atoms returns the underlying atom slice. The caller must not mutate it.
func (s *Solution) Atoms() []Atom { return s.elems }

// Add inserts atoms into the solution and marks it active (non-inert).
func (s *Solution) Add(atoms ...Atom) {
	if len(atoms) > 0 {
		s.mutated()
	}
	s.elems = append(s.elems, atoms...)
}

// RemoveIndices removes the atoms at the given indices (which must be
// distinct) and marks the solution active.
func (s *Solution) RemoveIndices(idx []int) {
	if len(idx) == 0 {
		return
	}
	s.removeSortedInPlace(slices.Clone(idx))
}

// removeSortedInPlace is RemoveIndices for a caller-owned index slice:
// it sorts idx in place instead of cloning, so the reduction hot loop
// can reuse one scratch buffer across firings.
func (s *Solution) removeSortedInPlace(idx []int) {
	if len(idx) == 0 {
		return
	}
	s.mutated()
	slices.Sort(idx)
	// Remove back to front so earlier indices stay valid. slices.Delete
	// zeroes the vacated tail slot, so a consumed atom does not stay
	// reachable from the spare capacity.
	for k := len(idx) - 1; k >= 0; k-- {
		i := idx[k]
		s.elems = slices.Delete(s.elems, i, i+1)
	}
}

// RemoveFirst removes the first atom equal to a, reporting whether one was
// found.
func (s *Solution) RemoveFirst(a Atom) bool {
	for i, e := range s.elems {
		if e.Equal(a) {
			s.RemoveIndices([]int{i})
			return true
		}
	}
	return false
}

// Contains reports whether the solution holds an atom equal to a.
func (s *Solution) Contains(a Atom) bool {
	for _, e := range s.elems {
		if e.Equal(a) {
			return true
		}
	}
	return false
}

// Count returns the multiplicity of atoms equal to a.
func (s *Solution) Count(a Atom) int {
	n := 0
	for _, e := range s.elems {
		if e.Equal(a) {
			n++
		}
	}
	return n
}

// Inert reports whether the reduction engine has marked this solution
// inert. A freshly built or freshly mutated solution is not inert.
func (s *Solution) Inert() bool { return s.inert }

// SetInert records the inertness state; it is exported for the reduction
// engine and for builders of inert payloads. Clearing the flag of a
// frozen solution panics.
func (s *Solution) SetInert(v bool) {
	if !v && s.frozen {
		panic(frozenMutation)
	}
	s.inert = v
}

func (s *Solution) Equal(b Atom) bool {
	o, ok := b.(*Solution)
	if !ok || len(s.elems) != len(o.elems) {
		return false
	}
	// Multiset equality: each atom of s must be matched by a distinct,
	// equal atom of o. Solutions stay small (tens of atoms), so the
	// quadratic scan is fine.
	used := make([]bool, len(o.elems))
outer:
	for _, e := range s.elems {
		for j, f := range o.elems {
			if !used[j] && e.Equal(f) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

func (s *Solution) Clone() Atom { return s.CloneSolution() }

// CloneSolution returns a deep copy preserving the inertness flag. The
// copy is never frozen.
func (s *Solution) CloneSolution() *Solution {
	c := &Solution{elems: make([]Atom, len(s.elems)), inert: s.inert}
	for i, e := range s.elems {
		c.elems[i] = e.Clone()
	}
	return c
}

// Subsolutions returns the nested solutions directly contained in s.
func (s *Solution) Subsolutions() []*Solution {
	var subs []*Solution
	for _, e := range s.elems {
		if sub, ok := e.(*Solution); ok {
			subs = append(subs, sub)
		}
	}
	return subs
}

// Rules returns the rules directly contained in s, in solution order.
func (s *Solution) Rules() []*Rule {
	var rs []*Rule
	for _, e := range s.elems {
		if r, ok := e.(*Rule); ok {
			rs = append(rs, r)
		}
	}
	return rs
}

// FindTuple returns the first tuple whose leading element is the ident key,
// and its index, or (nil, -1). GinFlow stores task attributes as keyed
// tuples (SRC:<...>, RES:<...>), so this is the workhorse accessor.
func (s *Solution) FindTuple(key Ident) (Tuple, int) {
	for i, e := range s.elems {
		if t, ok := e.(Tuple); ok && len(t) > 0 {
			if k, ok := t[0].(Ident); ok && k == key {
				return t, i
			}
		}
	}
	return nil, -1
}

// ReplaceAt substitutes the atom at index i and marks the solution active.
func (s *Solution) ReplaceAt(i int, a Atom) {
	s.mutated()
	s.elems[i] = a
}

func (s *Solution) String() string {
	var b strings.Builder
	writeSolution(&b, s)
	return b.String()
}

func (a Tuple) String() string {
	var b strings.Builder
	writeTuple(&b, a)
	return b.String()
}

func (a List) String() string {
	var b strings.Builder
	writeList(&b, a)
	return b.String()
}

func (a Int) String() string   { return fmt.Sprintf("%d", int64(a)) }
func (a Str) String() string   { return fmt.Sprintf("%q", string(a)) }
func (a Ident) String() string { return string(a) }

func (a Bool) String() string {
	if a {
		return "true"
	}
	return "false"
}

func (a Float) String() string {
	str := fmt.Sprintf("%g", float64(a))
	// Keep floats distinguishable from ints in the round-trip syntax.
	if !strings.ContainsAny(str, ".eE") && !strings.Contains(str, "Inf") && !strings.Contains(str, "NaN") {
		str += ".0"
	}
	return str
}
