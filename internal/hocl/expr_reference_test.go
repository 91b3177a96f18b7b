package hocl

// The tree-walking expression evaluator: the oracle the compiled
// expression machine (ecompile.go, evm.go) is differentially fuzzed
// against (FuzzExprDifferential in efuzz_test.go). No production code
// calls it. It shares applyBinop/applyUnop with the machine, so operator
// semantics cannot drift; everything else — evaluation order, splicing,
// snapshotting, error cases — is the independent reference.

// EvalScalar evaluates an expression to a single atom. Omega references
// are invalid in scalar position (guards, operator operands).
func EvalScalar(e Expr, env *Binding, funcs *Funcs) (Atom, error) {
	switch x := e.(type) {
	case *ELit:
		return x.Val, nil
	case *EVar:
		if x.Omega {
			return nil, evalErrf(e, "omega variable in scalar position")
		}
		a, ok := env.Atom(x.Name)
		if !ok {
			return nil, evalErrf(e, "unbound variable %q", x.Name)
		}
		return a, nil
	case *ECall:
		out, err := evalCall(x, env, funcs)
		if err != nil {
			return nil, err
		}
		if len(out) != 1 {
			return nil, evalErrf(e, "function %s returned %d atoms in scalar position", x.Fn, len(out))
		}
		return out[0], nil
	case *ETuple:
		elems, err := EvalElems(x.Elems, env, funcs)
		if err != nil {
			return nil, err
		}
		if len(elems) < 2 {
			return nil, evalErrf(e, "tuple needs at least 2 elements, got %d", len(elems))
		}
		return Tuple(elems), nil
	case *EList:
		elems, err := EvalElems(x.Elems, env, funcs)
		if err != nil {
			return nil, err
		}
		return List(elems), nil
	case *ESolution:
		elems, err := EvalElems(x.Elems, env, funcs)
		if err != nil {
			return nil, err
		}
		return NewSolution(elems...), nil
	case *EBinop:
		return evalBinop(x, env, funcs)
	case *EUnop:
		return evalUnop(x, env, funcs)
	default:
		return nil, evalErrf(e, "unknown expression type %T", e)
	}
}

// EvalElems evaluates an element list, splicing omega references and
// multi-atom function results. Every produced atom is snapshotted
// (copy-on-write at the Solution boundary) so products never alias
// consumed molecules: non-solution atoms are immutable and travel by
// reference, solutions get independent shells.
func EvalElems(elems []Expr, env *Binding, funcs *Funcs) ([]Atom, error) {
	var out []Atom
	for _, e := range elems {
		switch x := e.(type) {
		case *EVar:
			if x.Omega {
				rest, ok := env.Rest(x.Name)
				if !ok {
					return nil, evalErrf(e, "unbound omega variable %q", x.Name)
				}
				for _, a := range rest {
					out = append(out, Snapshot(a))
				}
				continue
			}
			a, err := EvalScalar(e, env, funcs)
			if err != nil {
				return nil, err
			}
			out = append(out, Snapshot(a))
		case *ECall:
			atoms, err := evalCall(x, env, funcs)
			if err != nil {
				return nil, err
			}
			for _, a := range atoms {
				out = append(out, Snapshot(a))
			}
		case *ETuple, *EList, *ESolution:
			// Freshly constructed composites: their inner atoms were
			// already snapshotted by the recursive EvalElems, so
			// re-snapshotting would copy every solution shell twice.
			a, err := EvalScalar(e, env, funcs)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		default:
			a, err := EvalScalar(e, env, funcs)
			if err != nil {
				return nil, err
			}
			out = append(out, Snapshot(a))
		}
	}
	return out, nil
}

func evalCall(x *ECall, env *Binding, funcs *Funcs) ([]Atom, error) {
	if funcs == nil {
		return nil, evalErrf(x, "no function registry for %s", x.Fn)
	}
	fn, ok := funcs.Lookup(x.Fn)
	if !ok {
		return nil, evalErrf(x, "unknown function %q", x.Fn)
	}
	args, err := EvalElems(x.Args, env, funcs)
	if err != nil {
		return nil, err
	}
	out, err := fn(args)
	if err != nil {
		return nil, &EvalError{Expr: x, Msg: err.Error(), Err: err}
	}
	return out, nil
}

// EvalGuard evaluates a guard expression to a boolean. A nil guard is
// true. Evaluation errors (type mismatches, unbound names) make the guard
// false rather than aborting reduction: chemically, atoms that cannot
// react simply do not react. getMax relies on this — the pair (rule, 2)
// fails x >= y with a type error and is skipped.
func EvalGuard(e Expr, env *Binding, funcs *Funcs) bool {
	if e == nil {
		return true
	}
	v, err := EvalScalar(e, env, funcs)
	if err != nil {
		return false
	}
	b, ok := v.(Bool)
	return ok && bool(b)
}

func evalBinop(x *EBinop, env *Binding, funcs *Funcs) (Atom, error) {
	// Short-circuit boolean operators.
	if x.Op == "&&" || x.Op == "||" {
		lv, err := EvalScalar(x.L, env, funcs)
		if err != nil {
			return nil, err
		}
		lb, ok := lv.(Bool)
		if !ok {
			return nil, evalErrf(x, "left operand of %s is %s, want bool", x.Op, lv.Kind())
		}
		if (x.Op == "&&" && !bool(lb)) || (x.Op == "||" && bool(lb)) {
			return lb, nil
		}
		rv, err := EvalScalar(x.R, env, funcs)
		if err != nil {
			return nil, err
		}
		rb, ok := rv.(Bool)
		if !ok {
			return nil, evalErrf(x, "right operand of %s is %s, want bool", x.Op, rv.Kind())
		}
		return rb, nil
	}
	l, err := EvalScalar(x.L, env, funcs)
	if err != nil {
		return nil, err
	}
	r, err := EvalScalar(x.R, env, funcs)
	if err != nil {
		return nil, err
	}
	return applyBinop(x, l, r, true)
}

func evalUnop(x *EUnop, env *Binding, funcs *Funcs) (Atom, error) {
	v, err := EvalScalar(x.X, env, funcs)
	if err != nil {
		return nil, err
	}
	return applyUnop(x, v, true)
}
