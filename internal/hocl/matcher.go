package hocl

import "math/rand"

// This file is the rule matcher: a backtracking machine that matches a
// rule's pattern list against the atoms of a solution.
//
// Patterns are immutable, so each *Rule compiles its pattern list once
// (Rule.program) into a flat instruction sequence; matching then runs as
// an iterative loop over a matcher-owned frame stack instead of the
// nested closures of the earlier continuation-passing matcher, whose
// per-pattern-level allocations dominated the reduction hot path.
//
// The machine has four stacks, all owned by the matcher and reused
// across matches:
//
//   - data:   atoms still to be destructured (opTuple pushes a tuple's
//     elements, the following instructions pop them);
//   - ctxs:   open solution contexts — index 0 is the top-level solution,
//     opEnterSol opens one per non-trivial sub-solution pattern. A
//     context is popped only by backtracking, never by opExitSol: a
//     completed sub-match must stay revisitable while later patterns run;
//   - frames: one choice point per opSelect, recording where to resume
//     (pc, next candidate) and what to roll back (binding mark, trail
//     mark, data length, context depth);
//   - trail:  every used-flag set since the last choice point, so
//     backtracking can clear candidate reservations in any context.
//
// Candidate order is how the engine injects chemical non-determinism:
// the top-level context iterates the engine-supplied order permutation,
// and every sub-solution context draws its own permutation from the
// engine's Rand (nil keeps natural order at every level).

// mop is the opcode of one matcher instruction.
type mop uint8

const (
	// opSelect is the machine's only choice point: reserve an unused atom
	// of the active solution context and push it on the data stack.
	opSelect   mop = iota
	opBindVar      // pop atom; bind a variable, or compare non-linearly
	opConst        // pop atom; structural equality with a constant
	opRuleRef      // pop atom; must be a *Rule carrying the given name
	opTuple        // pop atom; must be a Tuple of arity n; push its elements
	opList         // pop atom; must be a List of arity n; push its elements
	opSolEmpty     // pop atom; must be an inert, empty *Solution   (<>)
	opSolRest      // pop atom; inert *Solution, whole contents -> rest (<*w>)
	opEnterSol     // pop atom; inert *Solution of viable arity; open a context
	opExitSol      // close the active context, leftovers -> rest (or none)
	opFail         // always fails (omega outside a solution rest position)
)

// minstr is one matcher instruction. The operand fields are a union:
// each opcode reads the ones documented next to it above.
type minstr struct {
	op   mop
	n    int    // opTuple/opList arity, opEnterSol element count
	name string // variable, rule or rest name
	val  Atom   // opConst value
}

// compilePatterns flattens a rule's pattern list into the instruction
// sequence executed by matcher.run. Patterns compile in list order and
// pre-order within each tree, which reproduces the traversal order of
// the recursive matcher exactly — the differential fuzz test
// (FuzzMatcherDifferential) pins that equivalence.
func compilePatterns(pats []Pattern) []minstr {
	var ins []minstr
	for _, p := range pats {
		ins = append(ins, minstr{op: opSelect})
		ins = compilePattern(ins, p)
	}
	return ins
}

func compilePattern(ins []minstr, p Pattern) []minstr {
	switch pt := p.(type) {
	case *PVar:
		return append(ins, minstr{op: opBindVar, name: pt.Name})
	case *PConst:
		return append(ins, minstr{op: opConst, val: pt.Val})
	case *PRuleRef:
		return append(ins, minstr{op: opRuleRef, name: pt.Name})
	case *PTuple:
		ins = append(ins, minstr{op: opTuple, n: len(pt.Elems)})
		for _, e := range pt.Elems {
			ins = compilePattern(ins, e)
		}
		return ins
	case *PList:
		ins = append(ins, minstr{op: opList, n: len(pt.Elems)})
		for _, e := range pt.Elems {
			ins = compilePattern(ins, e)
		}
		return ins
	case *PSolution:
		if len(pt.Elems) == 0 {
			// The ubiquitous exact-empty (<>) and rest-only (<*w>)
			// patterns need no context or backtracking state.
			if pt.Rest == "" {
				return append(ins, minstr{op: opSolEmpty})
			}
			return append(ins, minstr{op: opSolRest, name: pt.Rest})
		}
		ins = append(ins, minstr{op: opEnterSol, n: len(pt.Elems), name: pt.Rest})
		for _, e := range pt.Elems {
			ins = append(ins, minstr{op: opSelect})
			ins = compilePattern(ins, e)
		}
		return append(ins, minstr{op: opExitSol, name: pt.Rest})
	case *POmega:
		// An omega outside a solution pattern would capture "the rest of
		// the enclosing solution", which HOCL reserves for explicit
		// sub-solution patterns; the parser rejects the top-level case
		// and nested occurrences (e.g. inside a tuple) never match.
		return append(ins, minstr{op: opFail})
	default:
		return append(ins, minstr{op: opFail})
	}
}

// solCtx is an open solution context: the multiset an opSelect draws
// candidates from, its reservation flags, and its candidate order.
type solCtx struct {
	sub  *Solution
	used []bool
	ord  []int // candidate permutation; nil means natural order
	prev int   // ctxs index active when this context was opened
}

// mframe is one choice point: enough to re-run its opSelect with the
// next candidate after rolling back everything attempted since.
type mframe struct {
	pc        int // instruction index of the opSelect
	cand      int // next candidate ordinal to try
	cur       int // active context at the choice point
	envMark   int
	trailMark int
	dataLen   int
	ctxLen    int
}

// trailRef records one used-flag reservation for rollback.
type trailRef struct{ ctx, idx int }

// Match is the result of matching a rule against a solution: the variable
// binding plus the indices of the consumed top-level atoms.
type Match struct {
	Env      *Binding
	Consumed []int // indices into the solution, ascending
}

type matcher struct {
	sol   *Solution
	used  []bool // top-level reservation flags (context 0)
	env   *Binding
	funcs *Funcs
	order []int
	// rng, when non-nil, draws a candidate permutation per sub-solution
	// context, extending the engine's chemical non-determinism below the
	// top level. The engine wires its own Rand through reset.
	rng *rand.Rand

	data   []Atom
	frames []mframe
	trail  []trailRef
	ctxs   []solCtx
	cur    int // ctxs index opSelect draws from

	// usedPool / ordPool recycle sub-context state by context stack
	// position: two contexts never share a position while both are live,
	// so the engine's hot loop opens contexts without allocating.
	usedPool [][]bool
	ordPool  [][]int
	// eqScratch backs restEqual's seen-flags, pooled for the same reason.
	eqScratch []bool

	// vm is the matcher-owned expression machine: guard programs run on
	// it in quiet mode after every complete candidate selection, and the
	// engine reuses the same machine for product evaluation, so neither
	// a failed guard nor a firing allocates evaluation state.
	vm evalVM

	// guardRejects accumulates guard rejections locally; the engine
	// flushes it to the package metrics once per Reduce, keeping the
	// match loop free of atomics.
	guardRejects int64
}

// reset prepares the matcher for a fresh match, reusing its slices and
// binding so the engine's hot loop does not allocate per candidate rule.
func (m *matcher) reset(sol *Solution, funcs *Funcs, order []int, rng *rand.Rand) {
	m.sol = sol
	m.funcs = funcs
	m.order = order
	m.rng = rng
	n := sol.Len()
	if cap(m.used) < n {
		m.used = make([]bool, n)
	} else {
		m.used = m.used[:n]
		clear(m.used)
	}
	if m.env == nil {
		m.env = NewBinding()
	} else {
		m.env.reset()
	}
}

// matchRule runs the match for r against the prepared solution. The
// returned Match shares the matcher's binding: it is valid until the next
// reset.
func (m *matcher) matchRule(r *Rule, selfIdx int) *Match {
	if selfIdx >= 0 && selfIdx < m.sol.Len() {
		m.used[selfIdx] = true
	}
	gprog, _ := r.eprograms()
	if !m.run(r.program(), gprog) {
		return nil
	}
	return &Match{Env: m.env, Consumed: m.consumedIndices(selfIdx)}
}

// run executes the compiled instruction sequence to the first complete
// match that also satisfies the guard (a compiled expression program,
// empty when the rule has none), backtracking through choice points on
// any failure.
func (m *matcher) run(prog []minstr, gprog []einstr) bool {
	m.data = m.data[:0]
	m.frames = m.frames[:0]
	m.trail = m.trail[:0]
	m.ctxs = append(m.ctxs[:0], solCtx{sub: m.sol, used: m.used, ord: m.order})
	m.cur = 0

	pc := 0
	for {
		if pc == len(prog) {
			if m.vm.evalGuard(gprog, m.env, m.funcs) {
				return true
			}
			m.guardRejects++
			if !m.backtrack(&pc) {
				return false
			}
			continue
		}
		ins := &prog[pc]
		ok := false
		switch ins.op {
		case opSelect:
			m.frames = append(m.frames, mframe{
				pc:        pc,
				cur:       m.cur,
				envMark:   m.env.mark(),
				trailMark: len(m.trail),
				dataLen:   len(m.data),
				ctxLen:    len(m.ctxs),
			})
			// backtrack tries the fresh frame's first candidate: the
			// rollback to its just-recorded marks is a no-op.
			if !m.backtrack(&pc) {
				return false
			}
			continue

		case opBindVar:
			a := m.pop()
			if prev, bound := m.env.Atom(ins.name); bound {
				ok = prev.Equal(a)
			} else {
				m.env.bindAtom(ins.name, a)
				ok = true
			}

		case opConst:
			ok = ins.val.Equal(m.pop())

		case opRuleRef:
			r, is := m.pop().(*Rule)
			ok = is && r.Name == ins.name

		case opTuple:
			if t, is := m.pop().(Tuple); is && len(t) == ins.n {
				for i := len(t) - 1; i >= 0; i-- {
					m.data = append(m.data, t[i])
				}
				ok = true
			}

		case opList:
			if l, is := m.pop().(List); is && len(l) == ins.n {
				for i := len(l) - 1; i >= 0; i-- {
					m.data = append(m.data, l[i])
				}
				ok = true
			}

		case opSolEmpty:
			s, is := m.pop().(*Solution)
			ok = is && s.Inert() && s.Len() == 0

		case opSolRest:
			s, is := m.pop().(*Solution)
			ok = is && s.Inert() && m.bindRest(ins.name, s.Atoms())

		case opEnterSol:
			// HOCL semantics: sub-solutions are matched only once inert.
			// The arity check prunes sub-solutions that cannot possibly
			// place every element pattern (exactly n atoms for an exact
			// pattern, at least n with a rest).
			s, is := m.pop().(*Solution)
			if is && s.Inert() && (s.Len() == ins.n || (ins.name != "" && s.Len() > ins.n)) {
				depth := len(m.ctxs)
				m.ctxs = append(m.ctxs, solCtx{
					sub:  s,
					used: m.subUsed(depth, s.Len()),
					ord:  m.subOrder(depth, s.Len()),
					prev: m.cur,
				})
				m.cur = depth
				ok = true
			}

		case opExitSol:
			ctx := &m.ctxs[m.cur]
			if ok = m.closeSol(ctx, ins.name); ok {
				m.cur = ctx.prev
			}

		case opFail:
			// ok stays false
		}
		if ok {
			pc++
			continue
		}
		if !m.backtrack(&pc) {
			return false
		}
	}
}

// backtrack resumes the most recent choice point with its next untried
// candidate, rolling back bindings, reservations, data and contexts to
// the choice point first and popping exhausted frames. It reports false
// when no choice remains anywhere.
func (m *matcher) backtrack(pc *int) bool {
	for len(m.frames) > 0 {
		f := &m.frames[len(m.frames)-1]
		m.env.undo(f.envMark)
		for i := len(m.trail) - 1; i >= f.trailMark; i-- {
			t := m.trail[i]
			m.ctxs[t.ctx].used[t.idx] = false
		}
		m.trail = m.trail[:f.trailMark]
		m.data = m.data[:f.dataLen]
		m.ctxs = m.ctxs[:f.ctxLen]
		m.cur = f.cur
		ctx := &m.ctxs[f.cur]
		n := ctx.sub.Len()
		for f.cand < n {
			i := f.cand
			if ctx.ord != nil {
				i = ctx.ord[i]
			}
			f.cand++
			if ctx.used[i] {
				continue
			}
			ctx.used[i] = true
			m.trail = append(m.trail, trailRef{ctx: f.cur, idx: i})
			m.data = append(m.data, ctx.sub.At(i))
			*pc = f.pc + 1
			return true
		}
		m.frames = m.frames[:len(m.frames)-1]
	}
	return false
}

func (m *matcher) pop() Atom {
	a := m.data[len(m.data)-1]
	m.data = m.data[:len(m.data)-1]
	return a
}

// closeSol finishes a sub-solution pattern: the context's unreserved
// atoms either bind to the rest variable or must not exist.
func (m *matcher) closeSol(ctx *solCtx, rest string) bool {
	free := 0
	for _, u := range ctx.used {
		if !u {
			free++
		}
	}
	if rest == "" {
		return free == 0
	}
	if free == 0 {
		return m.bindRest(rest, nil)
	}
	out := make([]Atom, 0, free)
	for i, u := range ctx.used {
		if !u {
			out = append(out, ctx.sub.At(i))
		}
	}
	return m.bindRest(rest, out)
}

// bindRest binds a rest capture, or — for a non-linear omega — compares
// it against the earlier capture.
func (m *matcher) bindRest(name string, rest []Atom) bool {
	if prev, bound := m.env.Rest(name); bound {
		return m.restEqual(prev, rest)
	}
	m.env.bindRest(name, rest)
	return true
}

// restEqual reports multiset equality of two rest captures. The
// seen-flags scratch is matcher-owned: non-linear omega re-checks sit on
// the reduction hot path and must not allocate.
func (m *matcher) restEqual(a, b []Atom) bool {
	if len(a) != len(b) {
		return false
	}
	if cap(m.eqScratch) < len(b) {
		m.eqScratch = make([]bool, len(b))
	}
	seen := m.eqScratch[:len(b)]
	clear(seen)
outer:
	for _, x := range a {
		for j, y := range b {
			if !seen[j] && x.Equal(y) {
				seen[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// subUsed returns a cleared reservation slice for a sub context opened
// at ctxs position depth. Positions are never shared by live contexts,
// so pooling by position is race-free within one matcher.
func (m *matcher) subUsed(depth, n int) []bool {
	d := depth - 1 // position 0 is the top level, which owns m.used
	for len(m.usedPool) <= d {
		m.usedPool = append(m.usedPool, nil)
	}
	buf := m.usedPool[d]
	if cap(buf) < n {
		buf = make([]bool, n)
	} else {
		buf = buf[:n]
		clear(buf)
	}
	m.usedPool[d] = buf
	return buf
}

// subOrder draws a fresh candidate permutation for a sub context opened
// at ctxs position depth, or nil (natural order) without an rng. This is
// where the engine's chemical non-determinism reaches nested solutions:
// re-entering a context after backtracking redraws, which is harmless —
// any permutation is exhaustively iterated.
func (m *matcher) subOrder(depth, n int) []int {
	if m.rng == nil || n < 2 {
		return nil
	}
	d := depth - 1
	for len(m.ordPool) <= d {
		m.ordPool = append(m.ordPool, nil)
	}
	s := m.ordPool[d]
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := m.rng.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
	m.ordPool[d] = s
	return s
}

// consumedIndices collects the reserved top-level indices, pre-sized
// from the reservation count: the result escapes into the Match, so it
// is the one allocation a successful match cannot avoid.
func (m *matcher) consumedIndices(selfIdx int) []int {
	n := 0
	for i, u := range m.used {
		if u && i != selfIdx {
			n++
		}
	}
	out := make([]int, 0, n)
	for i, u := range m.used {
		if u && i != selfIdx {
			out = append(out, i)
		}
	}
	return out
}
