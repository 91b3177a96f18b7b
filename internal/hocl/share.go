package hocl

import (
	"encoding/binary"
	"math"
)

// This file implements structural sharing for the zero-reparse message
// path (DESIGN.md "Zero-reparse message path"). The package invariant it
// rests on: every atom except *Solution is immutable, and an inert
// solution is never mutated by the reduction engine (the engine neither
// descends into nor fires rules inside an inert solution, and pattern
// matching only destructures).
//
// Freeze makes the invariant explicit and checked. A frozen solution is
// inert, shared by reference across owners and goroutines (the sending
// agent, its destinations, the broker's replay log, the space, the
// journal), and never mutated again: every mutator panics on it. Frozen
// at birth are a PASS payload, a status record and a task template's
// attribute solutions (package hoclflow), and every inert solution the
// wire codec decodes. Snapshots copy only the unfrozen Solution shells
// and their element arrays — the copy-on-write boundary — and share
// everything else, frozen solutions included, by reference.

// frozenMutation is the panic value of a mutation of a frozen solution.
const frozenMutation = "hocl: mutation of a frozen solution"

// Snapshot returns a copy of a that can be mutated through Solution
// methods without affecting the original (and vice versa): every
// unfrozen solution reachable from a gets a fresh shell with a fresh
// element array, while frozen solutions and all non-solution atoms —
// including those inside rebuilt tuples and lists — are shared by
// reference. For atoms containing no unfrozen solution, Snapshot returns
// a itself with zero allocation.
func Snapshot(a Atom) Atom {
	c, _ := snapshotAtom(a)
	return c
}

// SnapshotSolution is the Solution form of Snapshot: a fresh shell and
// element array (preserving the inertness flag), sharing element atoms
// down to the next unfrozen solution boundary. A frozen solution is its
// own snapshot.
func (s *Solution) SnapshotSolution() *Solution {
	if s.frozen {
		return s
	}
	elems := make([]Atom, len(s.elems))
	for i, e := range s.elems {
		elems[i], _ = snapshotAtom(e)
	}
	return &Solution{elems: elems, inert: s.inert}
}

// snapshotAtom returns the snapshot of a and whether anything was copied
// (i.e. a contains an unfrozen solution somewhere).
func snapshotAtom(a Atom) (Atom, bool) {
	switch v := a.(type) {
	case *Solution:
		if v.frozen {
			return v, false
		}
		return v.SnapshotSolution(), true
	case Tuple:
		if out, copied := snapshotSeq([]Atom(v)); copied {
			return Tuple(out), true
		}
		return v, false
	case List:
		if out, copied := snapshotSeq([]Atom(v)); copied {
			return List(out), true
		}
		return v, false
	default:
		return a, false
	}
}

// snapshotSeq snapshots a tuple/list element slice, allocating only when
// some element actually contains an unfrozen solution.
func snapshotSeq(elems []Atom) ([]Atom, bool) {
	for i, e := range elems {
		c, copied := snapshotAtom(e)
		if !copied {
			continue
		}
		out := make([]Atom, len(elems))
		copy(out, elems[:i])
		out[i] = c
		for j := i + 1; j < len(elems); j++ {
			out[j], _ = snapshotAtom(elems[j])
		}
		return out, true
	}
	return elems, false
}

// Freeze freezes every solution reachable from a when all of them are
// inert (the Shareable condition) and reports whether it did; otherwise
// it leaves a unchanged and reports false. It stops descending at a
// solution already frozen. Freeze writes the flags in place, so it is
// called by a's single owner before a is shared, never on an atom other
// goroutines may already read.
func Freeze(a Atom) bool {
	if !Shareable(a) {
		return false
	}
	freezeAtom(a)
	return true
}

func freezeAtom(a Atom) {
	switch v := a.(type) {
	case *Solution:
		if v.frozen {
			return
		}
		v.frozen = true
		freezeSeq(v.elems)
	case Tuple:
		freezeSeq([]Atom(v))
	case List:
		freezeSeq([]Atom(v))
	}
}

func freezeSeq(elems []Atom) {
	for _, e := range elems {
		freezeAtom(e)
	}
}

// Shareable reports whether a can be added to a solution under active
// reduction while remaining shared with other owners (another agent, the
// broker's replay log, the space): true when every solution reachable
// from a is inert. The engine never mutates an inert solution — it skips
// reducing it and pattern matching only destructures — so such atoms can
// travel by reference. A frozen solution is shareable without a walk. A
// non-shareable atom must be cloned by the receiver before ingestion.
func Shareable(a Atom) bool {
	switch v := a.(type) {
	case *Solution:
		if v.frozen {
			return true
		}
		if !v.inert {
			return false
		}
		return shareableSeq(v.elems)
	case Tuple:
		return shareableSeq([]Atom(v))
	case List:
		return shareableSeq([]Atom(v))
	default:
		return true
	}
}

func shareableSeq(elems []Atom) bool {
	for _, e := range elems {
		if !Shareable(e) {
			return false
		}
	}
	return true
}

// Fingerprint returns a 64-bit structural hash of the atoms, used by
// agents to deduplicate unchanged status pushes without rendering the
// solution to text.
//
// The top level is a multiset hash: each atom is hashed independently
// (FNV-1a, then a splitmix64 finalizer) and the per-atom hashes are
// combined commutatively (sum and xor, plus the count), so a reduction
// that merely permutes the top-level atoms — chemically the same state —
// fingerprints equal and is never re-pushed. Multiplicity still counts:
// {a, a, b} and {a, b, b} differ through both combiners. Below the top
// level, tuples, lists and nested solutions hash order-sensitively, as
// their element order is structurally meaningful on the wire.
//
// The inertness flag and solution identity do not participate. Rules
// hash exactly the components Rule.Equal compares (name, one-shot flag,
// rendered body), so two states that differ only in a rule's guard or
// products never collide.
func Fingerprint(atoms ...Atom) uint64 {
	var sum, xor uint64
	for _, a := range atoms {
		h := mix64(fingerprintAtom(fnvOffset, a))
		sum += h
		xor ^= h
	}
	return mix64(sum ^ mix64(xor+uint64(len(atoms))))
}

// AtomHash returns the finalized structural hash of one atom: the
// per-atom term of Fingerprint's top-level multiset combine. Equal atoms
// hash equal; below the atom's top level, element order is significant
// (matching Fingerprint). The space folds one per task record and marker
// through MultisetHash for its state fingerprint.
func AtomHash(a Atom) uint64 {
	return mix64(fingerprintAtom(fnvOffset, a))
}

// MultisetHash combines AtomHash values incrementally into the same
// order-insensitive fingerprint Fingerprint computes in one pass:
// folding the AtomHash of every atom in a multiset through Add yields
// Fingerprint of those atoms. The zero value is the hash of the empty
// multiset.
type MultisetHash struct {
	sum, xor uint64
	n        uint64
}

// Add folds one atom hash into the multiset.
func (m *MultisetHash) Add(h uint64) {
	m.sum += h
	m.xor ^= h
	m.n++
}

// Fingerprint returns the combined fingerprint, equal to Fingerprint
// over the same multiset of atoms.
func (m *MultisetHash) Fingerprint() uint64 {
	return mix64(m.sum ^ mix64(m.xor+m.n))
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
// Each per-atom hash is finalized before the commutative combine so
// structurally close atoms contribute independent bit patterns — the
// property that keeps sum/xor combining collision-safe in practice.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func fnvUint64(h, v uint64) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	for _, b := range buf {
		h = fnvByte(h, b)
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	h = fnvUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fingerprintAtom(h uint64, a Atom) uint64 {
	h = fnvByte(h, byte(a.Kind()))
	switch v := a.(type) {
	case Int:
		h = fnvUint64(h, uint64(v))
	case Float:
		h = fnvUint64(h, math.Float64bits(float64(v)))
	case Str:
		h = fnvString(h, string(v))
	case Bool:
		if v {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
	case Ident:
		h = fnvString(h, string(v))
	case Tuple:
		h = fingerprintSeq(h, []Atom(v))
	case List:
		h = fingerprintSeq(h, []Atom(v))
	case *Solution:
		h = fingerprintSeq(h, v.elems)
	case *Rule:
		h = fnvString(h, v.Name)
		h = fnvByte(h, byte(boolBit(v.OneShot)))
		h = fnvString(h, v.Body())
	}
	return h
}

func fingerprintSeq(h uint64, elems []Atom) uint64 {
	h = fnvUint64(h, uint64(len(elems)))
	for _, e := range elems {
		h = fingerprintAtom(h, e)
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
