package hocl

import (
	"fmt"
	"strings"
)

// Expr is a guard or product expression evaluated under a binding produced
// by pattern matching. Products of a rule are expressions; evaluating them
// yields the molecules inserted into the solution.
type Expr interface {
	exprNode()
	// String renders the expression in parseable syntax.
	String() string
}

// ELit is a literal atom (including rules embedded by the parser when a
// product references a let-bound rule by name).
type ELit struct{ Val Atom }

// EVar references a pattern variable. For an ω variable the reference
// splices the captured atoms into the enclosing element list.
type EVar struct {
	Name  string
	Omega bool
}

// ECall invokes a registered external function with evaluated arguments.
// Paper §III-A: "HOCL can also use external functions"; GinFlow uses them
// for list construction, service invocation and message sending.
type ECall struct {
	Fn   string
	Args []Expr
}

// ETuple builds a Tuple from element expressions.
type ETuple struct{ Elems []Expr }

// EList builds a List from element expressions (ω references splice).
type EList struct{ Elems []Expr }

// ESolution builds a Solution from element expressions (ω references
// splice).
type ESolution struct{ Elems []Expr }

// EBinop is a binary operation: arithmetic (+ - * / %), comparison
// (== != < <= > >=) or boolean (&& ||).
type EBinop struct {
	Op   string
	L, R Expr
}

// EUnop is unary negation (-) or logical not (!).
type EUnop struct {
	Op string
	X  Expr
}

func (*ELit) exprNode()      {}
func (*EVar) exprNode()      {}
func (*ECall) exprNode()     {}
func (*ETuple) exprNode()    {}
func (*EList) exprNode()     {}
func (*ESolution) exprNode() {}
func (*EBinop) exprNode()    {}
func (*EUnop) exprNode()     {}

func (e *ELit) String() string { return e.Val.String() }

func (e *EVar) String() string {
	if e.Omega {
		return "*" + e.Name
	}
	return e.Name
}

func (e *ECall) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Fn + "(" + strings.Join(args, ", ") + ")"
}

func (e *ETuple) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = exprTupleElem(el)
	}
	return strings.Join(parts, ":")
}

// exprTupleElem parenthesises tuple elements that would re-associate.
func exprTupleElem(e Expr) string {
	switch e.(type) {
	case *ETuple, *EBinop, *EUnop:
		return "(" + e.String() + ")"
	default:
		return e.String()
	}
}

func (e *EList) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = el.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func (e *ESolution) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = el.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

func (e *EBinop) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}

func (e *EUnop) String() string { return e.Op + exprTupleElem(e.X) }

// Binding maps pattern variables to the atoms they captured. Atom
// variables bind one atom; omega variables bind a slice (the "rest" of a
// solution). Bindings use an undo log so the matcher can backtrack.
type Binding struct {
	atoms map[string]Atom
	rests map[string][]Atom
	log   []bindEntry
}

type bindEntry struct {
	name  string
	omega bool
}

// NewBinding returns an empty binding.
func NewBinding() *Binding {
	return &Binding{atoms: map[string]Atom{}, rests: map[string][]Atom{}}
}

// Atom returns the atom bound to name.
func (b *Binding) Atom(name string) (Atom, bool) {
	a, ok := b.atoms[name]
	return a, ok
}

// Rest returns the atoms bound to the omega variable name.
func (b *Binding) Rest(name string) ([]Atom, bool) {
	r, ok := b.rests[name]
	return r, ok
}

func (b *Binding) bindAtom(name string, a Atom) {
	b.atoms[name] = a
	b.log = append(b.log, bindEntry{name, false})
}

func (b *Binding) bindRest(name string, atoms []Atom) {
	b.rests[name] = atoms
	b.log = append(b.log, bindEntry{name, true})
}

// reset empties the binding for reuse, keeping its maps and log capacity.
func (b *Binding) reset() {
	clear(b.atoms)
	clear(b.rests)
	b.log = b.log[:0]
}

// mark returns an undo checkpoint.
func (b *Binding) mark() int { return len(b.log) }

// undo rolls the binding back to a checkpoint.
func (b *Binding) undo(mark int) {
	for i := len(b.log) - 1; i >= mark; i-- {
		e := b.log[i]
		if e.omega {
			delete(b.rests, e.name)
		} else {
			delete(b.atoms, e.name)
		}
	}
	b.log = b.log[:mark]
}

// EvalError reports a failure while evaluating an expression. When the
// failure originated in an external function, Err preserves the cause so
// callers can unwrap domain errors (e.g. an injected agent crash) through
// the interpreter.
type EvalError struct {
	Expr Expr
	Msg  string
	Err  error
}

func (e *EvalError) Error() string {
	return fmt.Sprintf("hocl: eval %s: %s", e.Expr, e.Msg)
}

func (e *EvalError) Unwrap() error { return e.Err }

func evalErrf(e Expr, format string, args ...any) error {
	return &EvalError{Expr: e, Msg: fmt.Sprintf(format, args...)}
}

// applyBinop computes a non-short-circuit binary operation on evaluated
// operands. It is shared by the tree-walker and the compiled expression
// machine so the two paths cannot drift. With wantErr false (the
// machine's quiet guard mode, where any error just means "guard false"),
// failures return errEvalQuiet without allocating an error value.
func applyBinop(x *EBinop, l, r Atom, wantErr bool) (Atom, error) {
	switch x.Op {
	case "==":
		return Bool(l.Equal(r)), nil
	case "!=":
		return Bool(!l.Equal(r)), nil
	case "<", "<=", ">", ">=":
		c, ok := compareAtomsOrd(l, r)
		if !ok {
			if !wantErr {
				return nil, errEvalQuiet
			}
			return nil, evalErrf(x, "cannot compare %s with %s", l.Kind(), r.Kind())
		}
		switch x.Op {
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case "+", "-", "*", "/", "%":
		return arith(x, l, r, wantErr)
	default:
		if !wantErr {
			return nil, errEvalQuiet
		}
		return nil, evalErrf(x, "unknown operator %q", x.Op)
	}
}

// applyUnop computes a unary operation on an evaluated operand; shared
// by the tree-walker and the compiled machine like applyBinop.
func applyUnop(x *EUnop, v Atom, wantErr bool) (Atom, error) {
	switch x.Op {
	case "-":
		switch n := v.(type) {
		case Int:
			return -n, nil
		case Float:
			return -n, nil
		}
		if !wantErr {
			return nil, errEvalQuiet
		}
		return nil, evalErrf(x, "cannot negate %s", v.Kind())
	case "!":
		b, ok := v.(Bool)
		if !ok {
			if !wantErr {
				return nil, errEvalQuiet
			}
			return nil, evalErrf(x, "cannot negate non-bool %s", v.Kind())
		}
		return !b, nil
	default:
		if !wantErr {
			return nil, errEvalQuiet
		}
		return nil, evalErrf(x, "unknown unary operator %q", x.Op)
	}
}

// compareAtoms orders two atoms: numbers compare numerically with int→float
// promotion, strings lexicographically. Other kinds are unordered.
func compareAtoms(l, r Atom) (int, error) {
	c, ok := compareAtomsOrd(l, r)
	if !ok {
		return 0, fmt.Errorf("cannot compare %s with %s", l.Kind(), r.Kind())
	}
	return c, nil
}

// compareAtomsOrd is the allocation-free core of compareAtoms: it reports
// unordered kinds with a bool instead of constructing an error, so the
// quiet guard path stays off the heap.
func compareAtomsOrd(l, r Atom) (int, bool) {
	switch a := l.(type) {
	case Int:
		switch b := r.(type) {
		case Int:
			return cmpInt(int64(a), int64(b)), true
		case Float:
			return cmpFloat(float64(a), float64(b)), true
		}
	case Float:
		switch b := r.(type) {
		case Int:
			return cmpFloat(float64(a), float64(b)), true
		case Float:
			return cmpFloat(float64(a), float64(b)), true
		}
	case Str:
		if b, ok := r.(Str); ok {
			return strings.Compare(string(a), string(b)), true
		}
	}
	return 0, false
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// arith computes an arithmetic binary operation. With wantErr false
// (quiet guard mode) every failure returns errEvalQuiet; the error sites
// check before formatting so a failed guard never touches the heap.
func arith(x *EBinop, l, r Atom, wantErr bool) (Atom, error) {
	// String concatenation.
	if x.Op == "+" {
		if ls, ok := l.(Str); ok {
			if rs, ok := r.(Str); ok {
				return ls + rs, nil
			}
		}
	}
	li, lIsInt := l.(Int)
	ri, rIsInt := r.(Int)
	if lIsInt && rIsInt {
		switch x.Op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				if !wantErr {
					return nil, errEvalQuiet
				}
				return nil, evalErrf(x, "division by zero")
			}
			return li / ri, nil
		case "%":
			if ri == 0 {
				if !wantErr {
					return nil, errEvalQuiet
				}
				return nil, evalErrf(x, "modulo by zero")
			}
			return li % ri, nil
		}
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if !lok || !rok {
		if !wantErr {
			return nil, errEvalQuiet
		}
		return nil, evalErrf(x, "arithmetic on %s and %s", l.Kind(), r.Kind())
	}
	switch x.Op {
	case "+":
		return Float(lf + rf), nil
	case "-":
		return Float(lf - rf), nil
	case "*":
		return Float(lf * rf), nil
	case "/":
		if rf == 0 {
			if !wantErr {
				return nil, errEvalQuiet
			}
			return nil, evalErrf(x, "division by zero")
		}
		return Float(lf / rf), nil
	default:
		if !wantErr {
			return nil, errEvalQuiet
		}
		return nil, evalErrf(x, "operator %q not defined on floats", x.Op)
	}
}

func toFloat(a Atom) (float64, bool) {
	switch n := a.(type) {
	case Int:
		return float64(n), true
	case Float:
		return float64(n), true
	}
	return 0, false
}
