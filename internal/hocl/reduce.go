package hocl

import (
	"fmt"
	"math/rand"
	"sync"
)

// DefaultMaxSteps bounds a single Reduce call; programs that exceed it are
// assumed divergent. Workflow solutions fire a handful of rules per
// message, so the bound is generous.
const DefaultMaxSteps = 1_000_000

// TraceEvent describes one rule firing, for debugging and tests.
type TraceEvent struct {
	Rule  *Rule
	Depth int // nesting depth of the solution the rule fired in
}

// Engine reduces solutions: it applies rules until no rule can fire
// anywhere, at which point the solution (and, recursively, every
// sub-solution) is inert.
//
// The zero value is usable: built-in functions only, deterministic
// left-to-right atom selection, DefaultMaxSteps.
type Engine struct {
	// Funcs resolves external function calls; nil resolves the
	// built-ins only.
	Funcs *Funcs
	// Rand, when non-nil, shuffles candidate order each firing so the
	// reduction order is chemically non-deterministic (but reproducible
	// for a fixed seed). Nil keeps natural order.
	Rand *rand.Rand
	// MaxSteps bounds the number of rule firings per Reduce (0 means
	// DefaultMaxSteps).
	MaxSteps int
	// Trace, when non-nil, observes every firing.
	Trace func(TraceEvent)

	steps int
}

// scratch is one reduction's working state: the matcher (its stacks,
// binding and expression machine) and the permutation buffers of the
// chemically non-deterministic (Rand != nil) mode. Its contents are live
// only within one fireOne candidate attempt, so one instance serves a
// whole reduction. A reduction borrows it from scratchPool and returns
// it when it ends: an engine between reductions holds none, so the
// number of live scratches is the number of reductions in progress, not
// the number of engines.
type scratch struct {
	m       matcher
	ruleOrd []int
	candOrd []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release drops every reference the scratch holds into the reduced
// solution, keeping the slices' capacity, so a pooled scratch retains
// no atom of a past reduction.
func (s *scratch) release() {
	m := &s.m
	m.sol, m.funcs, m.order, m.rng = nil, nil, nil, nil
	m.guardRejects = 0
	clear(m.data[:cap(m.data)])
	clear(m.ctxs[:cap(m.ctxs)])
	clear(m.vm.stack[:cap(m.vm.stack)])
	if m.env != nil {
		m.env.reset()
	}
}

// NewEngine returns an engine with an empty registry of its own over
// the built-in functions.
func NewEngine() *Engine { return &Engine{Funcs: NewFuncs()} }

// ErrDiverged reports that reduction exceeded the step budget.
type ErrDiverged struct{ Steps int }

func (e *ErrDiverged) Error() string {
	return fmt.Sprintf("hocl: reduction exceeded %d steps (divergent program?)", e.Steps)
}

// Reduce rewrites sol until it is inert. It is not safe for concurrent
// use on the same engine or solution; each service agent owns one engine
// and one local solution (paper §IV-A), which is exactly how GinFlow
// avoids coherency problems. Distinct engines reduce concurrently: each
// call borrows its matching state for the call's duration only.
func (e *Engine) Reduce(sol *Solution) error {
	s := scratchPool.Get().(*scratch)
	e.steps = 0
	err := e.reduce(s, sol, 0)
	// Flush the pass's locally accumulated counts to the process-wide
	// metrics — three atomic adds per Reduce, nothing per firing.
	metReduceCalls.Inc()
	metRuleFirings.Add(int64(e.steps))
	metGuardRejections.Add(s.m.guardRejects)
	s.release()
	scratchPool.Put(s)
	return err
}

// Steps returns the number of rule firings performed by the last Reduce.
func (e *Engine) Steps() int { return e.steps }

func (e *Engine) funcs() *Funcs {
	if e.Funcs == nil {
		return builtinsOnly
	}
	return e.Funcs
}

func (e *Engine) maxSteps() int {
	if e.MaxSteps > 0 {
		return e.MaxSteps
	}
	return DefaultMaxSteps
}

func (e *Engine) reduce(s *scratch, sol *Solution, depth int) error {
	if sol.Inert() {
		return nil
	}
	for {
		// Depth-first: inner programs must finish before their results
		// are observable by outer rules (sub-solution inertness law).
		// Solutions nested inside tuples and lists (e.g. SRC:<...>) count:
		// the workflow rules match on their inertness. The nested list is
		// cached on the solution and invalidated by its generation
		// counter, and sub-solutions already marked inert are skipped
		// without a recursive call.
		for _, sub := range sol.nestedSolutions() {
			if sub.Inert() {
				continue
			}
			if err := e.reduce(s, sub, depth+1); err != nil {
				return err
			}
		}
		fired, err := e.fireOne(s, sol, depth)
		if err != nil {
			return err
		}
		if !fired {
			sol.SetInert(true)
			return nil
		}
	}
}

// fireOne tries every rule in sol and applies the first match found,
// reporting whether anything fired. Rule positions come from the
// solution's cached rule index, so atom-heavy solutions are not rescanned
// per firing; matcher state and permutation buffers come from the
// reduction's scratch and are reused across attempts.
func (e *Engine) fireOne(s *scratch, sol *Solution, depth int) (bool, error) {
	rules := sol.ruleIndices()
	if len(rules) == 0 {
		return false, nil
	}
	ruleOrd := e.permInto(&s.ruleOrd, len(rules))
	for k := range rules {
		ri := k
		if ruleOrd != nil {
			ri = ruleOrd[k]
		}
		idx := rules[ri]
		r := sol.At(idx).(*Rule)
		// The candidate permutation covers the top level; the matcher
		// draws per-context permutations from Rand itself, so nested
		// solution patterns see the same chemical non-determinism.
		s.m.reset(sol, e.funcs(), e.permInto(&s.candOrd, sol.Len()), e.Rand)
		m := s.m.matchRule(r, idx)
		if m == nil {
			continue
		}
		e.steps++
		if e.steps > e.maxSteps() {
			return false, &ErrDiverged{Steps: e.maxSteps()}
		}
		if err := r.applyVM(sol, m, idx, e.funcs(), &s.m.vm); err != nil {
			return false, err
		}
		if e.Trace != nil {
			e.Trace(TraceEvent{Rule: r, Depth: depth})
		}
		return true, nil
	}
	return false, nil
}

// permInto writes a fresh random permutation of [0,n) into the reusable
// buffer when Rand is set, or returns nil (natural order) otherwise.
func (e *Engine) permInto(buf *[]int, n int) []int {
	if e.Rand == nil {
		return nil
	}
	s := *buf
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := e.Rand.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
	*buf = s
	return s
}

// Run parses an HOCL program and reduces it to inertia, returning the
// final solution. It is the one-call entry point used by the hocl CLI and
// the examples.
func (e *Engine) Run(src string) (*Solution, error) {
	sol, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := e.Reduce(sol); err != nil {
		return nil, err
	}
	return sol, nil
}
