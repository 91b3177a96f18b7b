package hocl

import (
	"strings"
)

// writeTuple renders a tuple, parenthesising nested tuples so that
// A:(B:C) round-trips unambiguously.
func writeTuple(b *strings.Builder, t Tuple) {
	for i, e := range t {
		if i > 0 {
			b.WriteByte(':')
		}
		if nested, ok := e.(Tuple); ok {
			b.WriteByte('(')
			writeTuple(b, nested)
			b.WriteByte(')')
			continue
		}
		b.WriteString(e.String())
	}
}

func writeList(b *strings.Builder, l List) {
	b.WriteByte('[')
	for i, e := range l {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.String())
	}
	b.WriteByte(']')
}

func writeSolution(b *strings.Builder, s *Solution) {
	b.WriteByte('<')
	for i := 0; i < s.Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.At(i).String())
	}
	b.WriteByte('>')
}

// Pretty renders a solution with indentation for human consumption (logs,
// CLI output). The output is still parseable.
func Pretty(a Atom) string {
	var b strings.Builder
	prettyAtom(&b, a, 0)
	return b.String()
}

func prettyAtom(b *strings.Builder, a Atom, depth int) {
	sol, ok := a.(*Solution)
	if !ok || sol.Len() == 0 {
		b.WriteString(a.String())
		return
	}
	indent := strings.Repeat("  ", depth+1)
	b.WriteString("<\n")
	for i := 0; i < sol.Len(); i++ {
		b.WriteString(indent)
		prettyAtom(b, sol.At(i), depth+1)
		if i < sol.Len()-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteByte('>')
}
