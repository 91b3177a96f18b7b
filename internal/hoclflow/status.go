package hoclflow

import (
	"ginflow/internal/hocl"
)

// This file implements the status push (DESIGN.md "Status pushes"). An
// agent's local solution is "often pushed back (written) to the
// multiset" (§IV-A): every push is the task's whole stripped top level,
// the Name:<...> tuple, behind a VER header. The space replaces the
// task's record under the version gate, which orders pushes and drops
// stale or duplicated ones, so a full record is idempotent and nothing
// can fail to apply.

// KeySTATDELTA is the head of the StatusDelta wire tuple.
const KeySTATDELTA = hocl.Ident("STATDELTA")

// StatusDelta is the wire shape of a retired delta-encoded status push:
// STATDELTA : Name : base : next : [removedHash, ...] : [added, ...] : inert.
// The product neither emits nor reads it; the space records one as a
// plain marker. It stays because the frozen benchmark's codec probe
// encodes one beside a full record.
type StatusDelta struct {
	Task          string
	Base, Next    uint64
	RemovedHashes []uint64
	Added         []hocl.Atom
	Inert         bool
}

// Atom renders the delta in its wire form.
func (d *StatusDelta) Atom() hocl.Atom {
	removed := make(hocl.List, len(d.RemovedHashes))
	for i, h := range d.RemovedHashes {
		removed[i] = hocl.Int(int64(h))
	}
	return hocl.Tuple{
		KeySTATDELTA,
		hocl.Ident(d.Task),
		hocl.Int(int64(d.Base)),
		hocl.Int(int64(d.Next)),
		removed,
		hocl.List(d.Added),
		hocl.Bool(d.Inert),
	}
}

// StatusEncoder produces the status-push payload stream of one task.
// Every payload is a VER header followed by the full Name:<...> record;
// an unchanged state (by hocl.Fingerprint) pushes nothing, since each
// publish costs the broker a slot of model time. The encoder is the
// single writer of its task's status on the space topic; it is not safe
// for concurrent use.
type StatusEncoder struct {
	// Task names the task whose status this encoder publishes.
	Task string
	// Incarnation is the publishing agent's incarnation, stamped into
	// every payload's VER header so the space can order pushes across a
	// respawn.
	Incarnation int

	pushed bool
	fp     uint64 // fingerprint of the last pushed state
	// push counts emitted payloads within this incarnation; it stays
	// monotone across Reset, so every push outranks the ones before it.
	push int64
}

// Encode returns the wire payload for the task's current stripped status
// atoms — the VER header and the full Name:<...> record — or nil when
// the state is unchanged since the last push. The record is a fresh
// shell over the caller's own atoms, which Encode freezes (hocl.Freeze)
// so that the space, the journal and the caller share them; only an atom
// holding an active solution, which a reduced local solution never
// holds, is copied instead. An inert record is frozen as a whole. The
// caller keeps ownership of the input slice, and must mutate no frozen
// atom afterwards (the engine never does).
func (e *StatusEncoder) Encode(atoms []hocl.Atom, inert bool) []hocl.Atom {
	fp := hocl.Fingerprint(atoms...)
	if e.pushed && fp == e.fp {
		return nil
	}
	e.pushed, e.fp = true, fp
	e.push++
	sub := hocl.NewSolution(atoms...)
	for i, a := range atoms {
		if !hocl.Freeze(a) {
			sub.ReplaceAt(i, hocl.Snapshot(a))
		}
	}
	sub.SetInert(inert)
	hocl.Freeze(sub)
	return []hocl.Atom{
		VersionMarker(e.Task, int64(e.Incarnation), e.push),
		TaskTuple(e.Task, sub),
	}
}

// Reset makes the next Encode push even if the state is unchanged. The
// push counter is not reset.
func (e *StatusEncoder) Reset() {
	e.pushed = false
}
