package hocl

import (
	"fmt"
	"sort"
)

// registerListBuiltins adds the numeric and list utilities beyond the
// core set — the HOCLflow "extra syntactic facilities" (§III-A) grow a
// small standard library here so user programs and service kernels can
// manipulate parameter lists without external functions.
func registerListBuiltins(reg func(string, Func)) {
	reg("sum", numericFold("sum", func(acc, x float64) float64 { return acc + x }, 0))
	reg("product", numericFold("product", func(acc, x float64) float64 { return acc * x }, 1))
	reg("count", func(args []Atom) ([]Atom, error) {
		return []Atom{Int(len(args))}, nil
	})
	reg("minimum", numericPick("minimum", func(a, b float64) bool { return a < b }))
	reg("maximum", numericPick("maximum", func(a, b float64) bool { return a > b }))
	reg("nth", func(args []Atom) ([]Atom, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("nth: want (list, index)")
		}
		l, ok := args[0].(List)
		if !ok {
			return nil, fmt.Errorf("nth: first argument is %s, want list", args[0].Kind())
		}
		n, ok := args[1].(Int)
		if !ok {
			return nil, fmt.Errorf("nth: index is %s, want int", args[1].Kind())
		}
		if n < 0 || int(n) >= len(l) {
			return nil, fmt.Errorf("nth: index %d out of range [0, %d)", n, len(l))
		}
		return []Atom{l[n]}, nil
	})
	reg("reverse", func(args []Atom) ([]Atom, error) {
		l, err := oneList("reverse", args)
		if err != nil {
			return nil, err
		}
		out := make(List, len(l))
		for i, a := range l {
			out[len(l)-1-i] = a
		}
		return []Atom{out}, nil
	})
	reg("sorted", func(args []Atom) ([]Atom, error) {
		l, err := oneList("sorted", args)
		if err != nil {
			return nil, err
		}
		out := append(List(nil), l...)
		var sortErr error
		sort.SliceStable(out, func(i, j int) bool {
			c, err := compareAtoms(out[i], out[j])
			if err != nil && sortErr == nil {
				sortErr = fmt.Errorf("sorted: %w", err)
			}
			return c < 0
		})
		if sortErr != nil {
			return nil, sortErr
		}
		return []Atom{out}, nil
	})
	reg("contains", func(args []Atom) ([]Atom, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("contains: want (list|solution, atom)")
		}
		needle := args[1]
		switch hay := args[0].(type) {
		case List:
			for _, a := range hay {
				if a.Equal(needle) {
					return []Atom{Bool(true)}, nil
				}
			}
			return []Atom{Bool(false)}, nil
		case *Solution:
			return []Atom{Bool(hay.Contains(needle))}, nil
		default:
			return nil, fmt.Errorf("contains: cannot search %s", args[0].Kind())
		}
	})
}

// numericFold builds a variadic numeric reducer that accepts bare
// numbers, or a single list of numbers. Integers stay integral when
// every operand is an Int.
func numericFold(name string, step func(acc, x float64) float64, init float64) Func {
	return func(args []Atom) ([]Atom, error) {
		nums, allInt, err := numericArgs(name, args)
		if err != nil {
			return nil, err
		}
		acc := init
		for _, x := range nums {
			acc = step(acc, x)
		}
		if allInt {
			return []Atom{Int(int64(acc))}, nil
		}
		return []Atom{Float(acc)}, nil
	}
}

// numericPick builds min/max style selectors.
func numericPick(name string, better func(a, b float64) bool) Func {
	return func(args []Atom) ([]Atom, error) {
		nums, allInt, err := numericArgs(name, args)
		if err != nil {
			return nil, err
		}
		if len(nums) == 0 {
			return nil, fmt.Errorf("%s: no operands", name)
		}
		best := nums[0]
		for _, x := range nums[1:] {
			if better(x, best) {
				best = x
			}
		}
		if allInt {
			return []Atom{Int(int64(best))}, nil
		}
		return []Atom{Float(best)}, nil
	}
}

// numericArgs flattens arguments into float operands: either a single
// list argument or bare numbers.
func numericArgs(name string, args []Atom) (nums []float64, allInt bool, err error) {
	operands := args
	if len(args) == 1 {
		if l, ok := args[0].(List); ok {
			operands = l
		}
	}
	allInt = true
	for _, a := range operands {
		switch v := a.(type) {
		case Int:
			nums = append(nums, float64(v))
		case Float:
			nums = append(nums, float64(v))
			allInt = false
		default:
			return nil, false, fmt.Errorf("%s: operand %s is not numeric", name, a.Kind())
		}
	}
	return nums, allInt, nil
}
