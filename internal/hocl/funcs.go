package hocl

import (
	"fmt"
	"strings"
)

// Func is an external function callable from rule guards and products.
// It receives evaluated argument atoms and returns the atoms to splice
// into the enclosing molecule list. The paper's HOCL interpreter calls
// Java methods this way (§III-A); GinFlow uses external functions for
// list construction, service invocation (invoke) and message sending.
//
// The args slice is only valid for the duration of the call: the
// compiled evaluator passes a window of its pooled value stack. A Func
// that needs to keep the arguments must copy them (returning args, or a
// subslice of it, as the result is fine — the evaluator reads results
// before reusing the window).
type Func func(args []Atom) ([]Atom, error)

// Funcs is a registry of external functions: an overlay of an engine's
// own functions over the built-in table. Every registry resolves the
// built-ins; a name registered on the overlay takes precedence. The zero
// value is ready to use.
//
// A registry is filled, then read: register every function before the
// first Reduce (or lookup) that uses the registry, and only look up
// after that. Lookups take no lock, so any number of goroutines may look
// up concurrently in a registry nobody writes to; a Register concurrent
// with anything else on the same registry is a data race.
type Funcs struct {
	// own is the overlay: an engine binds a handful of names (an agent
	// binds invoke, send and its task's generated functions), so a
	// linear scan beats hashing and one slice is the whole registry.
	own []namedFunc
}

// namedFunc is one overlay entry.
type namedFunc struct {
	name string
	fn   Func
}

// ownCap sizes an overlay's entry slice on its first Register: invoke,
// send and two task functions fit without growing it.
const ownCap = 4

// builtinTable holds the built-in functions, built once at package
// initialisation and never written after: every registry reads it
// without copying it.
var builtinTable = func() map[string]Func {
	m := map[string]Func{}
	reg := func(name string, fn Func) { m[name] = fn }
	registerBuiltins(reg)
	registerListBuiltins(reg)
	return m
}()

// builtinsOnly is the registry of an engine with no Funcs of its own.
// Nothing registers on it.
var builtinsOnly = &Funcs{}

// NewFuncs returns an empty registry over the built-in functions:
//
//	list(a1, ..., an)   -> [a1, ..., an]          (paper footnote 4)
//	len(x)              -> element count of a list, solution, tuple or string
//	head(l), tail(l)    -> first element / remainder of a list
//	append(l, a...)     -> list with atoms appended
//	concat(l1, l2)      -> concatenated lists
//	str(a...)           -> string rendering of atoms, concatenated
//	flatten(l)          -> splices a list's elements into the molecule list
//
// plus the list and numeric utilities of builtins.go. It copies nothing.
func NewFuncs() *Funcs { return &Funcs{} }

// Register adds (or replaces) a function under the given name. A name
// of a built-in shadows the built-in for this registry only.
func (f *Funcs) Register(name string, fn Func) {
	for i := range f.own {
		if f.own[i].name == name {
			f.own[i].fn = fn
			return
		}
	}
	if f.own == nil {
		f.own = make([]namedFunc, 0, ownCap)
	}
	f.own = append(f.own, namedFunc{name, fn})
}

// Lookup returns the function registered under name: the overlay's
// first, then the built-in table's.
func (f *Funcs) Lookup(name string) (Func, bool) {
	for i := range f.own {
		if f.own[i].name == name {
			return f.own[i].fn, true
		}
	}
	fn, ok := builtinTable[name]
	return fn, ok
}

func registerBuiltins(reg func(string, Func)) {
	reg("list", func(args []Atom) ([]Atom, error) {
		return []Atom{List(append([]Atom(nil), args...))}, nil
	})
	reg("len", func(args []Atom) ([]Atom, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("len: want 1 argument, got %d", len(args))
		}
		switch v := args[0].(type) {
		case List:
			return []Atom{Int(len(v))}, nil
		case Tuple:
			return []Atom{Int(len(v))}, nil
		case *Solution:
			return []Atom{Int(v.Len())}, nil
		case Str:
			return []Atom{Int(len(v))}, nil
		default:
			return nil, fmt.Errorf("len: cannot measure %s", args[0].Kind())
		}
	})
	reg("head", func(args []Atom) ([]Atom, error) {
		l, err := oneList("head", args)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 {
			return nil, fmt.Errorf("head: empty list")
		}
		return []Atom{l[0]}, nil
	})
	reg("tail", func(args []Atom) ([]Atom, error) {
		l, err := oneList("tail", args)
		if err != nil {
			return nil, err
		}
		if len(l) == 0 {
			return nil, fmt.Errorf("tail: empty list")
		}
		return []Atom{List(append([]Atom(nil), l[1:]...))}, nil
	})
	reg("append", func(args []Atom) ([]Atom, error) {
		if len(args) < 1 {
			return nil, fmt.Errorf("append: want at least 1 argument")
		}
		l, ok := args[0].(List)
		if !ok {
			return nil, fmt.Errorf("append: first argument is %s, want list", args[0].Kind())
		}
		out := append(append(List(nil), l...), args[1:]...)
		return []Atom{out}, nil
	})
	reg("concat", func(args []Atom) ([]Atom, error) {
		var out List
		for i, a := range args {
			l, ok := a.(List)
			if !ok {
				return nil, fmt.Errorf("concat: argument %d is %s, want list", i+1, a.Kind())
			}
			out = append(out, l...)
		}
		return []Atom{out}, nil
	})
	reg("str", func(args []Atom) ([]Atom, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			if s, ok := a.(Str); ok {
				parts[i] = string(s)
			} else {
				parts[i] = a.String()
			}
		}
		return []Atom{Str(strings.Join(parts, ""))}, nil
	})
	reg("flatten", func(args []Atom) ([]Atom, error) {
		l, err := oneList("flatten", args)
		if err != nil {
			return nil, err
		}
		return append([]Atom(nil), l...), nil
	})
}

func oneList(fn string, args []Atom) (List, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("%s: want 1 argument, got %d", fn, len(args))
	}
	l, ok := args[0].(List)
	if !ok {
		return nil, fmt.Errorf("%s: argument is %s, want list", fn, args[0].Kind())
	}
	return l, nil
}
