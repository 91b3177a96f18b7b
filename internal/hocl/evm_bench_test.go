package hocl

// Micro-benchmarks for the compiled expression machine (ecompile.go /
// evm.go), guarded by cmd/benchguard alongside the
// end-to-end reduction benchmark: the guard path must stay allocation-
// free per failed candidate, and the product path must not regress to
// tree-walker slice churn.

import "testing"

// BenchmarkEvalGuard measures the cost of guard rejection, the dominant
// operation of chemical matching: getMax's `x >= y` over a solution of
// unorderable idents tries every candidate pair, and every guard
// evaluation fails with a comparison type error (eval-error-means-false).
// Under the tree-walker each failure allocated an error chain; compiled
// quiet-mode guards fail without touching the heap, so the per-call
// allocations are the constant matcher setup of the MatchRule test
// entry, independent of the quadratic number of guard attempts.
func BenchmarkEvalGuard(b *testing.B) {
	rule := MustParseRuleBody("max", "replace x, y by x if x >= y", nil)
	atoms := make([]Atom, 9)
	for i := 0; i < 8; i++ {
		atoms[i] = Ident("A" + string(rune('0'+i)))
	}
	atoms[8] = rule
	sol := NewSolution(atoms...)
	funcs := NewFuncs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := MatchRule(rule, sol, 8, funcs, nil); m != nil {
			b.Fatal("idents must not satisfy x >= y")
		}
	}
}

// BenchmarkEvalProducts measures product construction through the
// engine's firing path: a one-shot rule whose products exercise every
// constructor opcode — an omega splice into a call, a nested tuple, and
// a fresh sub-solution with a second splice. Per iteration the template
// is snapshotted (the agent instantiation path) and reduced to inertness,
// which fires the rule exactly once.
func BenchmarkEvalProducts(b *testing.B) {
	tmpl, err := Parse(
		`let gw = replace-one IN:<*w> by OUT:list(*w), PAIR:(1:2), <DONE, *w>
		 in <gw, IN:<"a", "b", "c", "d">>`)
	if err != nil {
		b.Fatal(err)
	}
	engine := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := tmpl.SnapshotSolution()
		if err := engine.Reduce(sol); err != nil {
			b.Fatal(err)
		}
	}
}
