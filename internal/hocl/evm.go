package hocl

import "errors"

// This file is the expression stack machine that executes the programs
// built by ecompile.go. One evalVM is owned by each matcher (guards) and
// reused across the firings of a reduction (products); the matcher lives
// in the pooled scratch a reduction borrows, so its value stack, mark
// stack and removal scratch amortise to zero allocations on the
// reduction hot path without every engine keeping a set.
//
// The machine runs in one of two modes:
//
//   - quiet (guards): any evaluation failure returns the errEvalQuiet
//     sentinel instead of constructing an *EvalError, because EvalGuard
//     semantics fold every error into "guard false" — chemically, atoms
//     that cannot react simply do not react. Every error site checks
//     quiet before formatting, so a failed guard costs zero heap. Note
//     that external functions are still called in quiet mode: their side
//     effects (message sends, service invocations) must happen exactly
//     as under the tree-walker.
//   - loud (products): failures build the same *EvalError the
//     tree-walker builds — same Expr reference, same message, same
//     wrapped cause — which evm_test.go pins class by class.

// errEvalQuiet is the allocation-free sentinel for evaluation failures
// in quiet guard mode. It never escapes the package: evalGuard folds it
// (like every other error) into a false guard.
var errEvalQuiet = errors.New("hocl: guard evaluation failed")

// evalVM is the expression machine state. The zero value is ready to
// use; stacks grow on first use and are retained across runs.
type evalVM struct {
	stack []Atom // value stack; after a run, holds the produced atoms
	marks []int  // constructor stack-height marks
	quiet bool   // guard mode: errors become errEvalQuiet
	// removeScratch backs applyVM's consumed-index buffer, pooled here
	// because the vm already travels through every firing site.
	removeScratch []int
}

// evalGuard runs a compiled guard program under EvalGuard semantics: an
// empty program (nil guard) is true, any evaluation error is false, and
// otherwise the result must be the atom true.
func (v *evalVM) evalGuard(prog []einstr, env *Binding, funcs *Funcs) bool {
	if len(prog) == 0 {
		return true
	}
	v.quiet = true
	err := v.run(prog, env, funcs)
	v.quiet = false
	if err != nil {
		return false
	}
	b, ok := v.stack[len(v.stack)-1].(Bool)
	return ok && bool(b)
}

// run executes a compiled program, leaving its results on v.stack. Error
// construction is gated on v.quiet at every site (rather than through a
// helper) so the quiet path provably never reaches an allocating
// fmt.Sprintf or argument boxing.
func (v *evalVM) run(prog []einstr, env *Binding, funcs *Funcs) error {
	v.stack = v.stack[:0]
	v.marks = v.marks[:0]
	pc := 0
	for pc < len(prog) {
		ins := &prog[pc]
		switch ins.op {
		case eLit:
			v.stack = append(v.stack, ins.val)

		case eVarScalar:
			a, ok := env.Atom(ins.name)
			if !ok {
				if v.quiet {
					return errEvalQuiet
				}
				return evalErrf(ins.src, "unbound variable %q", ins.name)
			}
			v.stack = append(v.stack, a)

		case eVarElem:
			a, ok := env.Atom(ins.name)
			if !ok {
				if v.quiet {
					return errEvalQuiet
				}
				return evalErrf(ins.src, "unbound variable %q", ins.name)
			}
			v.stack = append(v.stack, Snapshot(a))

		case eOmegaScalar:
			if v.quiet {
				return errEvalQuiet
			}
			return evalErrf(ins.src, "omega variable in scalar position")

		case eSplice:
			rest, ok := env.Rest(ins.name)
			if !ok {
				if v.quiet {
					return errEvalQuiet
				}
				return evalErrf(ins.src, "unbound omega variable %q", ins.name)
			}
			for _, a := range rest {
				v.stack = append(v.stack, Snapshot(a))
			}

		case eSnap:
			v.stack[len(v.stack)-1] = Snapshot(v.stack[len(v.stack)-1])

		case eMark:
			v.marks = append(v.marks, len(v.stack))

		case eCallCheck:
			// Error precedence matches the tree-walker: registry and
			// lookup failures are reported before any argument error.
			if funcs == nil {
				if v.quiet {
					return errEvalQuiet
				}
				return evalErrf(ins.src, "no function registry for %s", ins.name)
			}
			if _, ok := funcs.Lookup(ins.name); !ok {
				if v.quiet {
					return errEvalQuiet
				}
				return evalErrf(ins.src, "unknown function %q", ins.name)
			}

		case eCallScalar, eCallElems:
			mark := v.marks[len(v.marks)-1]
			v.marks = v.marks[:len(v.marks)-1]
			// Look the function up again rather than carry it from
			// eCallCheck: calls nested in the arguments ran in
			// between, and an overlay lookup is a short scan.
			fn, ok := funcs.Lookup(ins.name)
			if !ok {
				if v.quiet {
					return errEvalQuiet
				}
				return evalErrf(ins.src, "unknown function %q", ins.name)
			}
			out, err := fn(v.stack[mark:len(v.stack):len(v.stack)])
			if err != nil {
				if v.quiet {
					return errEvalQuiet
				}
				return &EvalError{Expr: ins.src, Msg: err.Error(), Err: err}
			}
			if ins.op == eCallScalar {
				if len(out) != 1 {
					if v.quiet {
						return errEvalQuiet
					}
					return evalErrf(ins.src, "function %s returned %d atoms in scalar position", ins.name, len(out))
				}
				v.stack = append(v.stack[:mark], out[0])
			} else {
				// out may alias the argument window (a Func returning
				// its args); the element-wise read-before-write of
				// append keeps the truncate-then-push safe.
				v.stack = v.stack[:mark]
				for _, a := range out {
					v.stack = append(v.stack, Snapshot(a))
				}
			}

		case eTuple:
			mark := v.marks[len(v.marks)-1]
			v.marks = v.marks[:len(v.marks)-1]
			n := len(v.stack) - mark
			if n < 2 {
				if v.quiet {
					return errEvalQuiet
				}
				return evalErrf(ins.src, "tuple needs at least 2 elements, got %d", n)
			}
			t := make(Tuple, n)
			copy(t, v.stack[mark:])
			v.stack = append(v.stack[:mark], t)

		case eList:
			mark := v.marks[len(v.marks)-1]
			v.marks = v.marks[:len(v.marks)-1]
			l := make(List, len(v.stack)-mark)
			copy(l, v.stack[mark:])
			v.stack = append(v.stack[:mark], l)

		case eSol:
			mark := v.marks[len(v.marks)-1]
			v.marks = v.marks[:len(v.marks)-1]
			s := NewSolution(v.stack[mark:]...)
			v.stack = append(v.stack[:mark], s)

		case eBinop:
			r := v.stack[len(v.stack)-1]
			l := v.stack[len(v.stack)-2]
			v.stack = v.stack[:len(v.stack)-1]
			res, err := applyBinop(ins.src.(*EBinop), l, r, !v.quiet)
			if err != nil {
				return err
			}
			v.stack[len(v.stack)-1] = res

		case eUnop:
			res, err := applyUnop(ins.src.(*EUnop), v.stack[len(v.stack)-1], !v.quiet)
			if err != nil {
				return err
			}
			v.stack[len(v.stack)-1] = res

		case eAndJmp, eOrJmp:
			top := v.stack[len(v.stack)-1]
			b, ok := top.(Bool)
			if !ok {
				if v.quiet {
					return errEvalQuiet
				}
				x := ins.src.(*EBinop)
				return evalErrf(x, "left operand of %s is %s, want bool", x.Op, top.Kind())
			}
			// Short-circuit keeps the left operand as the result.
			if bool(b) == (ins.op == eOrJmp) {
				pc = ins.tgt
				continue
			}
			v.stack = v.stack[:len(v.stack)-1]

		case eBoolRight:
			top := v.stack[len(v.stack)-1]
			if _, ok := top.(Bool); !ok {
				if v.quiet {
					return errEvalQuiet
				}
				x := ins.src.(*EBinop)
				return evalErrf(x, "right operand of %s is %s, want bool", x.Op, top.Kind())
			}

		case eBadExpr:
			if v.quiet {
				return errEvalQuiet
			}
			return evalErrf(ins.src, "unknown expression type %T", ins.src)
		}
		pc++
	}
	return nil
}
