package hocl

import (
	"fmt"
	"strings"
	"sync"
)

// Rule is a reaction rule and, per HOCL's higher order, also an atom that
// can float in solutions, be consumed and be produced. Rules are immutable
// after construction.
//
//	replace P1, ..., Pn by M1, ..., Mk if G      (catalyst: persists)
//	replace-one P1, ..., Pn by M1, ..., Mk if G  (one-shot: fires once)
type Rule struct {
	// Name identifies the rule for higher-order references; anonymous
	// rules have an empty name.
	Name    string
	Pattern []Pattern
	Guard   Expr // nil means always true
	Product []Expr
	OneShot bool

	// compiled caches the matcher program for Pattern. Patterns are
	// immutable, so the cache is never invalidated; rules are shared by
	// reference across engines (Clone returns the rule itself), so
	// compilation must be once-only under concurrency.
	compileOnce sync.Once
	compiled    []minstr

	// ecompileOnce caches the expression programs for Guard and Product
	// under the same immutability/sharing contract as compileOnce.
	ecompileOnce sync.Once
	guardProg    []einstr
	productProg  []einstr
}

// program returns the rule's compiled matcher program, compiling the
// pattern list on first use.
func (r *Rule) program() []minstr {
	r.compileOnce.Do(func() { r.compiled = compilePatterns(r.Pattern) })
	return r.compiled
}

// eprograms returns the rule's compiled guard and product programs,
// compiling both expression trees on first use. A nil guard compiles to
// an empty program (always true).
func (r *Rule) eprograms() (guard, products []einstr) {
	r.ecompileOnce.Do(func() {
		r.guardProg = compileGuard(r.Guard)
		r.productProg = compileProducts(r.Product)
	})
	return r.guardProg, r.productProg
}

// Equal compares rules structurally: same name and same rendered
// definition. Rules received over the wire must compare equal to the
// rules they were printed from, anonymous ones included.
func (r *Rule) Equal(b Atom) bool {
	o, ok := b.(*Rule)
	if !ok {
		return false
	}
	if r == o {
		return true
	}
	return r.Name == o.Name && r.OneShot == o.OneShot && r.Body() == o.Body()
}

// Clone returns the rule itself: rules are immutable, so sharing is safe.
func (r *Rule) Clone() Atom { return r }

// Keyword returns the defining keyword of the rule.
func (r *Rule) Keyword() string {
	if r.OneShot {
		return "replace-one"
	}
	return "replace"
}

// Body renders the rule definition without its name binding, e.g.
// "replace x, y by x if (x >= y)".
func (r *Rule) Body() string {
	var b strings.Builder
	b.WriteString(r.Keyword())
	b.WriteByte(' ')
	for i, p := range r.Pattern {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteString(" by ")
	if len(r.Product) == 0 {
		b.WriteString("nothing")
	}
	for i, e := range r.Product {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	if r.Guard != nil {
		b.WriteString(" if ")
		b.WriteString(r.Guard.String())
	}
	return b.String()
}

// String renders the rule as a parseable inline literal:
// "(rule name = replace ... by ... if ...)". The parenthesised form keeps
// the rule's internal commas from being read as solution separators, so
// solutions containing rules round-trip through the wire format.
func (r *Rule) String() string {
	name := r.Name
	if name == "" {
		name = "_"
	}
	return fmt.Sprintf("(rule %s = %s)", name, r.Body())
}

// Apply fires the rule on sol for the given match: consumed atoms are
// removed (plus the rule itself at selfIdx when one-shot) and products
// are evaluated and inserted. Apply reports an error if a product fails
// to evaluate; the solution is unchanged in that case.
func (r *Rule) Apply(sol *Solution, m *Match, selfIdx int, funcs *Funcs) error {
	var vm evalVM
	return r.applyVM(sol, m, selfIdx, funcs, &vm)
}

// applyVM is Apply with a caller-owned expression machine: the engine's
// hot loop reuses one machine (and its removal scratch) across firings,
// so firing a rule allocates only what the products themselves require.
// The products are inserted straight off the machine's value stack —
// Solution.Add copies the atoms, so the stack is free for reuse after.
func (r *Rule) applyVM(sol *Solution, m *Match, selfIdx int, funcs *Funcs, vm *evalVM) error {
	_, pprog := r.eprograms()
	if err := vm.run(pprog, m.Env, funcs); err != nil {
		return fmt.Errorf("hocl: rule %s: %w", r.displayName(), err)
	}
	remove := append(vm.removeScratch[:0], m.Consumed...)
	if r.OneShot && selfIdx >= 0 {
		remove = append(remove, selfIdx)
	}
	vm.removeScratch = remove
	sol.removeSortedInPlace(remove)
	sol.Add(vm.stack...)
	return nil
}

func (r *Rule) displayName() string {
	if r.Name == "" {
		return "<anonymous>"
	}
	return r.Name
}
