package hocl

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file implements the compact binary atom codec: the record format
// of the durable session journal (internal/journal) and the seed for any
// future binary network transport. EncodeAtoms/DecodeAtoms round-trip a
// frozen molecule list losslessly — including solution inertness flags
// and exact float bits, which the textual wire format does not preserve
// — and a decoded tree compares Equal to the source of its encoding.
//
// Layout: one version byte, then a uvarint molecule count, then each
// atom as a one-byte tag followed by a tag-specific payload. Sequences
// (tuples, lists, solutions) carry a uvarint element count and recurse.
// Rules travel as their name plus rendered body and are re-parsed on
// decode (the same path the textual format uses), so only rules whose
// bodies are self-contained — which includes every rule GinFlow
// generates — survive the trip; a rule whose body references a named
// rule scope fails to decode with an error, never silently.

// WireVersion is the codec version emitted by EncodeAtoms and accepted
// by DecodeAtoms. A version bump invalidates persisted journals, so the
// layout favours extension (new tags) over relayout.
const WireVersion = 1

// Atom tags of the binary codec. Bool folds its value into the tag, and
// Solution splits by inertness, so the five scalar kinds and the four
// structured kinds fit a dense tag space with no flag bytes.
const (
	wireInt byte = iota
	wireFloat
	wireStr
	wireBoolFalse
	wireBoolTrue
	wireIdent
	wireTuple
	wireList
	wireSolution
	wireSolutionInert
	wireRule
)

// wireMaxDepth bounds decoder recursion: deeper nesting than this is
// rejected as corrupt rather than risking a stack overflow on a
// malformed (or adversarial) record.
const wireMaxDepth = 1000

// EncodeAtoms renders a molecule list in the binary wire format.
// The atoms must be frozen (the encoder reads, never mutates).
func EncodeAtoms(atoms []Atom) []byte {
	// Pre-size for the common journal record: mostly small scalars.
	dst := make([]byte, 0, 16+16*len(atoms))
	return AppendAtoms(dst, atoms)
}

// AppendAtoms appends the binary encoding of a molecule list to dst and
// returns the extended slice — the allocation-free form of EncodeAtoms
// for callers that reuse buffers.
func AppendAtoms(dst []byte, atoms []Atom) []byte {
	dst = append(dst, WireVersion)
	dst = binary.AppendUvarint(dst, uint64(len(atoms)))
	for _, a := range atoms {
		dst = appendAtom(dst, a)
	}
	return dst
}

func appendAtom(dst []byte, a Atom) []byte {
	switch v := a.(type) {
	case Int:
		dst = append(dst, wireInt)
		dst = binary.AppendVarint(dst, int64(v))
	case Float:
		dst = append(dst, wireFloat)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(v)))
	case Str:
		dst = append(dst, wireStr)
		dst = appendWireString(dst, string(v))
	case Bool:
		if v {
			dst = append(dst, wireBoolTrue)
		} else {
			dst = append(dst, wireBoolFalse)
		}
	case Ident:
		dst = append(dst, wireIdent)
		dst = appendWireString(dst, string(v))
	case Tuple:
		dst = append(dst, wireTuple)
		dst = appendWireSeq(dst, []Atom(v))
	case List:
		dst = append(dst, wireList)
		dst = appendWireSeq(dst, []Atom(v))
	case *Solution:
		if v.Inert() {
			dst = append(dst, wireSolutionInert)
		} else {
			dst = append(dst, wireSolution)
		}
		dst = appendWireSeq(dst, v.Atoms())
	case *Rule:
		dst = append(dst, wireRule)
		dst = appendWireString(dst, v.Name)
		dst = appendWireString(dst, v.Body())
	default:
		// The Atom interface is closed over the nine kinds above; a new
		// kind must teach the codec about itself before it can travel.
		panic(fmt.Sprintf("hocl: EncodeAtoms: unencodable atom kind %v", a.Kind()))
	}
	return dst
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendWireSeq(dst []byte, elems []Atom) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(elems)))
	for _, e := range elems {
		dst = appendAtom(dst, e)
	}
	return dst
}

// DecodeAtoms decodes a molecule list from the binary wire format,
// consuming the whole buffer. Decoded atoms are freshly built (nothing
// aliases data): solutions carry their encoded inertness, an inert
// solution whose nested solutions are all inert comes back frozen (see
// Freeze), so consumers share it by reference, floats and
// strings are bit-exact, and rules are re-parsed from their rendered
// bodies. Corrupt input — bad version, truncation, trailing garbage,
// over-deep nesting, an unparseable rule — returns an error; DecodeAtoms
// never panics on arbitrary bytes.
func DecodeAtoms(data []byte) ([]Atom, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("hocl: DecodeAtoms: empty input")
	}
	if data[0] != WireVersion {
		return nil, fmt.Errorf("hocl: DecodeAtoms: wire version %d, want %d", data[0], WireVersion)
	}
	d := wireDecoder{buf: data, pos: 1}
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	atoms, err := d.seq(n, 0)
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.buf) {
		return nil, fmt.Errorf("hocl: DecodeAtoms: %d trailing bytes", len(d.buf)-d.pos)
	}
	return atoms, nil
}

type wireDecoder struct {
	buf []byte
	pos int
}

func (d *wireDecoder) errf(format string, args ...any) error {
	return fmt.Errorf("hocl: DecodeAtoms: byte %d: %s", d.pos, fmt.Sprintf(format, args...))
}

func (d *wireDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.errf("bad uvarint")
	}
	d.pos += n
	return v, nil
}

func (d *wireDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		return 0, d.errf("bad varint")
	}
	d.pos += n
	return v, nil
}

func (d *wireDecoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)-d.pos) {
		return "", d.errf("string length %d overruns buffer", n)
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

// seq decodes n atoms at the given nesting depth. The count is validated
// against the bytes remaining (every atom costs at least one tag byte),
// so a corrupt count fails fast instead of allocating gigabytes.
func (d *wireDecoder) seq(n uint64, depth int) ([]Atom, error) {
	if n > uint64(len(d.buf)-d.pos) {
		return nil, d.errf("element count %d overruns buffer", n)
	}
	if n == 0 {
		return nil, nil
	}
	atoms := make([]Atom, 0, n)
	for i := uint64(0); i < n; i++ {
		a, err := d.atom(depth)
		if err != nil {
			return nil, err
		}
		atoms = append(atoms, a)
	}
	return atoms, nil
}

func (d *wireDecoder) atom(depth int) (Atom, error) {
	if depth > wireMaxDepth {
		return nil, d.errf("nesting deeper than %d", wireMaxDepth)
	}
	if d.pos >= len(d.buf) {
		return nil, d.errf("truncated atom")
	}
	tag := d.buf[d.pos]
	d.pos++
	switch tag {
	case wireInt:
		v, err := d.varint()
		if err != nil {
			return nil, err
		}
		return Int(v), nil
	case wireFloat:
		if len(d.buf)-d.pos < 8 {
			return nil, d.errf("truncated float")
		}
		bits := binary.LittleEndian.Uint64(d.buf[d.pos:])
		d.pos += 8
		return Float(math.Float64frombits(bits)), nil
	case wireStr:
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		return Str(s), nil
	case wireBoolFalse:
		return Bool(false), nil
	case wireBoolTrue:
		return Bool(true), nil
	case wireIdent:
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		return Ident(s), nil
	case wireTuple, wireList, wireSolution, wireSolutionInert:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		elems, err := d.seq(n, depth+1)
		if err != nil {
			return nil, err
		}
		switch tag {
		case wireTuple:
			return Tuple(elems), nil
		case wireList:
			return List(elems), nil
		default:
			// The solution takes the slice seq allocated for it.
			sol := solutionOver(elems)
			if tag == wireSolutionInert {
				// Decoded atoms have one owner, the decoder: freezing
				// them lets every consumer share them by reference.
				sol.SetInert(true)
				Freeze(sol)
			}
			return sol, nil
		}
	case wireRule:
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		body, err := d.str()
		if err != nil {
			return nil, err
		}
		r, err := ParseRuleBody(name, body, nil)
		if err != nil {
			return nil, d.errf("rule %q: %v", name, err)
		}
		return r, nil
	default:
		return nil, d.errf("unknown atom tag %d", tag)
	}
}
