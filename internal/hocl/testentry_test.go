package hocl

import (
	"fmt"
	"strings"
)

// Entry points that only tests and fuzzers call: the production engine
// parses programs and rule bodies, matches through Engine.Reduce and
// fires rules through applyVM.

// ParseMolecules parses a comma-separated list of ground molecules — the
// wire format of inter-agent messages. No variables or external scope are
// allowed; rule literals `(rule name = replace ... by ...)` are.
func ParseMolecules(src string) ([]Atom, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var atoms []Atom
	if p.tok.kind == tokEOF {
		return nil, nil
	}
	for {
		a, err := p.parseGround()
		if err != nil {
			return nil, err
		}
		atoms = append(atoms, a)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %s after molecules", p.tok)
	}
	return atoms, nil
}

// ParseGround parses a single ground molecule.
func ParseGround(src string) (Atom, error) {
	atoms, err := ParseMolecules(src)
	if err != nil {
		return nil, err
	}
	if len(atoms) != 1 {
		return nil, fmt.Errorf("hocl: want exactly 1 molecule, got %d", len(atoms))
	}
	return atoms[0], nil
}

// FormatMolecules renders atoms as a comma-separated molecule list — the
// inverse of ParseMolecules and the wire format for inter-agent messages.
func FormatMolecules(atoms []Atom) string {
	parts := make([]string, len(atoms))
	for i, a := range atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ", ")
}

// MatchRule searches sol for atoms satisfying r's pattern and guard. The
// rule's own atom (at index selfIdx, -1 if not applicable) is excluded
// from candidates: a rule does not consume itself. Candidates are tried
// in the order given by order (a permutation of sol indices; nil means
// natural order), which is how the engine injects chemical
// non-determinism. Returns nil when no match exists.
func MatchRule(r *Rule, sol *Solution, selfIdx int, funcs *Funcs, order []int) *Match {
	var m matcher
	m.reset(sol, funcs, order, nil)
	res := m.matchRule(r, selfIdx)
	metGuardRejections.Add(m.guardRejects)
	return res
}

// evalProducts runs a compiled product program and returns the produced
// atoms in a fresh exact-size slice (nil when the program produces
// nothing, matching EvalElems). The engine's firing path skips the copy
// by reading vm.stack directly after run — see Rule.applyVM.
func (v *evalVM) evalProducts(prog []einstr, env *Binding, funcs *Funcs) ([]Atom, error) {
	if err := v.run(prog, env, funcs); err != nil {
		return nil, err
	}
	if len(v.stack) == 0 {
		return nil, nil
	}
	out := make([]Atom, len(v.stack))
	copy(out, v.stack)
	return out, nil
}
