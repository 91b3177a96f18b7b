package hocl

// This file is the expression compiler: the guard and product side of the
// compilation story that matcher.go tells for patterns. Expressions are
// immutable once a rule is built, so each *Rule compiles its guard and
// product trees once (Rule.eprograms, same sync.Once idiom as
// Rule.program) into a flat instruction sequence executed by the
// iterative stack machine in evm.go. The tree-walker in
// expr_reference_test.go stays as the semantic reference:
// FuzzExprDifferential pins the two paths to byte-identical results and
// errors.
//
// Two compilation contexts mirror the walker's two entry points:
//
//   - scalar (EvalScalar): the expression must leave exactly one atom on
//     the value stack. Omega references compile to an instruction that
//     always fails, matching the walker's runtime error.
//   - element (EvalElems): the expression may leave any number of atoms —
//     omega references splice, calls splice their multi-atom results —
//     and every atom crossing out of the binding or a function is
//     snapshotted (copy-on-write at the Solution boundary), except
//     freshly constructed composites whose parts were already
//     snapshotted by their own element compilation.
//
// Composite constructors (tuple/list/solution/call arguments) bracket
// their element programs with eMark/eTuple-style pairs: eMark records the
// value-stack height, the constructor pops everything above it. Snapshot
// placement is decided at compile time: a literal in element position
// gets a trailing eSnap only if it actually contains a solution, and
// binop/unop results are always scalar kinds, so they never need one.

// eop is the opcode of one expression instruction.
type eop uint8

const (
	eLit         eop = iota // push val
	eVarScalar              // push the atom bound to name
	eVarElem                // push Snapshot of the atom bound to name
	eOmegaScalar            // always errors: omega variable in scalar position
	eSplice                 // push Snapshot of each atom of the rest bound to name
	eSnap                   // replace top of stack with its Snapshot
	eMark                   // record value-stack height for a constructor
	eCallCheck              // verify the function exists before evaluating args
	eCallScalar             // pop mark; call name(stack[mark:]); require 1 atom; push it
	eCallElems              // pop mark; call; push Snapshot of each result atom
	eTuple                  // pop mark; stack[mark:] becomes a Tuple (arity >= 2)
	eList                   // pop mark; stack[mark:] becomes a List
	eSol                    // pop mark; stack[mark:] becomes a fresh *Solution
	eBinop                  // pop r, l; push applyBinop result
	eUnop                   // pop v; push applyUnop result
	eAndJmp                 // top must be Bool; false: jump tgt keeping it; true: pop
	eOrJmp                  // top must be Bool; true: jump tgt keeping it; false: pop
	eBoolRight              // top must be Bool (right operand of && / ||)
	eBadExpr                // unknown expression type
)

// einstr is one expression instruction. The operand fields are a union:
// each opcode reads the ones documented next to it above. src is the
// originating expression, carried for error fidelity with the
// tree-walker (the machine's EvalError values reference the same node).
type einstr struct {
	op   eop
	tgt  int    // eAndJmp/eOrJmp jump target
	name string // variable or function name
	val  Atom   // eLit value
	src  Expr
}

// compileGuard compiles a guard expression to a scalar program. A nil
// guard compiles to an empty program, which evalGuard treats as true.
func compileGuard(e Expr) []einstr {
	if e == nil {
		return nil
	}
	return compileScalar(nil, e)
}

// compileProducts compiles a product expression list to an element
// program: running it leaves the produced atoms on the value stack in
// insertion order.
func compileProducts(elems []Expr) []einstr {
	var p []einstr
	for _, e := range elems {
		p = compileElem(p, e)
	}
	return p
}

// compileScalar emits instructions that leave exactly one atom on the
// stack, mirroring EvalScalar case by case.
func compileScalar(p []einstr, e Expr) []einstr {
	switch x := e.(type) {
	case *ELit:
		return append(p, einstr{op: eLit, val: x.Val, src: e})
	case *EVar:
		if x.Omega {
			return append(p, einstr{op: eOmegaScalar, src: e})
		}
		return append(p, einstr{op: eVarScalar, name: x.Name, src: e})
	case *ECall:
		return compileCall(p, x, eCallScalar)
	case *ETuple:
		p = append(p, einstr{op: eMark})
		for _, el := range x.Elems {
			p = compileElem(p, el)
		}
		return append(p, einstr{op: eTuple, src: e})
	case *EList:
		p = append(p, einstr{op: eMark})
		for _, el := range x.Elems {
			p = compileElem(p, el)
		}
		return append(p, einstr{op: eList, src: e})
	case *ESolution:
		p = append(p, einstr{op: eMark})
		for _, el := range x.Elems {
			p = compileElem(p, el)
		}
		return append(p, einstr{op: eSol, src: e})
	case *EBinop:
		if x.Op == "&&" || x.Op == "||" {
			op := eAndJmp
			if x.Op == "||" {
				op = eOrJmp
			}
			p = compileScalar(p, x.L)
			j := len(p)
			p = append(p, einstr{op: op, src: e})
			p = compileScalar(p, x.R)
			p = append(p, einstr{op: eBoolRight, src: e})
			p[j].tgt = len(p)
			return p
		}
		p = compileScalar(p, x.L)
		p = compileScalar(p, x.R)
		return append(p, einstr{op: eBinop, src: e})
	case *EUnop:
		p = compileScalar(p, x.X)
		return append(p, einstr{op: eUnop, src: e})
	default:
		return append(p, einstr{op: eBadExpr, src: e})
	}
}

// compileElem emits instructions for one element-position expression,
// mirroring EvalElems: omegas and calls splice, and every atom leaving
// the binding or a function is snapshotted. Composites need no snapshot
// (their parts were snapshotted when compiled), and neither do literals
// without a solution inside or binop/unop results (always scalar kinds):
// Snapshot would return them unchanged.
func compileElem(p []einstr, e Expr) []einstr {
	switch x := e.(type) {
	case *EVar:
		if x.Omega {
			return append(p, einstr{op: eSplice, name: x.Name, src: e})
		}
		return append(p, einstr{op: eVarElem, name: x.Name, src: e})
	case *ECall:
		return compileCall(p, x, eCallElems)
	case *ETuple, *EList, *ESolution:
		return compileScalar(p, e)
	case *ELit:
		p = append(p, einstr{op: eLit, val: x.Val, src: e})
		if _, hasSol := snapshotAtom(x.Val); hasSol {
			p = append(p, einstr{op: eSnap})
		}
		return p
	default:
		return compileScalar(p, e)
	}
}

// compileCall emits the call sequence shared by both contexts. The
// leading eCallCheck reproduces the walker's error precedence: a missing
// registry or unknown function is reported before any argument error,
// even though the compiled program evaluates arguments first.
func compileCall(p []einstr, x *ECall, op eop) []einstr {
	p = append(p, einstr{op: eCallCheck, name: x.Fn, src: x})
	p = append(p, einstr{op: eMark})
	for _, a := range x.Args {
		p = compileElem(p, a)
	}
	return append(p, einstr{op: op, name: x.Fn, src: x})
}
