package hocl

import (
	"strings"
	"testing"
)

func mustParseGround(t *testing.T, src string) Atom {
	t.Helper()
	a, err := ParseGround(src)
	if err != nil {
		t.Fatalf("ParseGround(%q): %v", src, err)
	}
	return a
}

func TestParseGroundBasics(t *testing.T) {
	cases := []struct {
		src  string
		want Atom
	}{
		{"42", Int(42)},
		{"-7", Int(-7)},
		{"3.25", Float(3.25)},
		{"-0.5", Float(-0.5)},
		{"1e3", Float(1000)},
		{`"hello world"`, Str("hello world")},
		{`"esc\"aped"`, Str(`esc"aped`)},
		{"true", Bool(true)},
		{"false", Bool(false)},
		{"ERROR", Ident("ERROR")},
		{"T2'", Ident("T2'")}, // paper-style primes are identifiers
		{"SRC:<>", Tuple{Ident("SRC"), NewSolution()}},
		{"A:B:C", Tuple{Ident("A"), Ident("B"), Ident("C")}},
		{"A:(B:C)", Tuple{Ident("A"), Tuple{Ident("B"), Ident("C")}}},
		{"[1, 2, 3]", List{Int(1), Int(2), Int(3)}},
		{"[]", List(nil)},
		{"<1, 2>", NewSolution(Int(1), Int(2))},
		{"<>", NewSolution()},
		{"<<1>, 2>", NewSolution(NewSolution(Int(1)), Int(2))},
	}
	for _, c := range cases {
		got := mustParseGround(t, c.src)
		if !got.Equal(c.want) {
			t.Errorf("ParseGround(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseGroundErrors(t *testing.T) {
	cases := []string{
		"",            // empty
		"x",           // free variable
		"<1",          // unterminated solution
		"[1",          // unterminated list
		`"abc`,        // unterminated string
		"1 2",         // juxtaposition
		"*w",          // omega outside rule
		"let",         // keyword
		"A:",          // dangling colon
		"/* unclosed", // unterminated comment
	}
	for _, src := range cases {
		if _, err := ParseGround(src); err == nil {
			t.Errorf("ParseGround(%q) succeeded, want error", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
	// line comment
	# hash comment
	/* block
	   comment */
	<1, 2> // trailing
	`
	got := mustParseGround(t, src)
	if !got.Equal(NewSolution(Int(1), Int(2))) {
		t.Errorf("got %v", got)
	}
}

func TestRoundTripGround(t *testing.T) {
	// Printing then re-parsing must yield an equal atom. This property is
	// what makes the text syntax usable as the message wire format.
	srcs := []string{
		"42", "-42", "3.5", `"s"`, "true", "ERROR",
		"SRC:<T1, T2>",
		"T1:<SRC:<>, DST:<T2, T3>, SRV:\"s1\", IN:<\"input\">>",
		"[1, [2, 3], <4>]",
		"A:(B:C):D",
		"MVSRC:T4:T2:T2'",
		"<RES:<ERROR>, ADAPT>",
	}
	for _, src := range srcs {
		a := mustParseGround(t, src)
		b := mustParseGround(t, a.String())
		if !a.Equal(b) {
			t.Errorf("round trip of %q: %v != %v", src, a, b)
		}
	}
}

func TestRoundTripRuleLiteral(t *testing.T) {
	r := MustParseRuleBody("max", "replace x, y by x if x >= y", nil)
	sol := NewSolution(Int(2), r)
	back := mustParseGround(t, sol.String())
	bsol, ok := back.(*Solution)
	if !ok {
		t.Fatalf("got %T", back)
	}
	rules := bsol.Rules()
	if len(rules) != 1 || rules[0].Name != "max" {
		t.Fatalf("rules after round trip: %v", rules)
	}
	if rules[0].OneShot {
		t.Error("catalyst became one-shot")
	}
	// And the round-tripped rule must still work.
	e := NewEngine()
	if err := e.Reduce(bsol); err != nil {
		t.Fatal(err)
	}
	if !bsol.Contains(Int(2)) {
		t.Errorf("solution after reduction: %v", bsol)
	}
}

func TestParseProgramGetMax(t *testing.T) {
	sol, err := Parse(`let max = replace x, y by x if x >= y in <2, 3, 5, 8, 9, max>`)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Len() != 6 {
		t.Fatalf("program solution has %d atoms, want 6", sol.Len())
	}
	if len(sol.Rules()) != 1 {
		t.Fatalf("rules: %d, want 1", len(sol.Rules()))
	}
}

func TestParseProgramScopedRuleRefs(t *testing.T) {
	sol, err := Parse(`
		let max = replace x, y by x if x >= y in
		let clean = replace-one <max, *w> by *w in
		<<2, 3, 5, 8, 9, max>, clean>`)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Len() != 2 {
		t.Fatalf("outer solution has %d atoms, want 2", sol.Len())
	}
	clean := sol.Rules()
	if len(clean) != 1 || clean[0].Name != "clean" || !clean[0].OneShot {
		t.Fatalf("outer rule wrong: %v", clean)
	}
}

func TestParseRuleBodyForms(t *testing.T) {
	// replace-one
	r := MustParseRuleBody("r", `replace-one SRC:<>, IN:<*w> by SRC:<>, PAR:list(*w)`, nil)
	if !r.OneShot || len(r.Pattern) != 2 || len(r.Product) != 2 {
		t.Fatalf("gw_setup-style rule parsed wrong: %+v", r)
	}
	// with/inject sugar re-emits the pattern.
	wi := MustParseRuleBody("w", `with T2:<RES:<ERROR>, *o> inject TRIGGER:T2'`, nil)
	if !wi.OneShot {
		t.Error("with/inject must be one-shot")
	}
	if len(wi.Product) != len(wi.Pattern)+1 {
		t.Errorf("with/inject product = %d exprs, want pattern(%d)+1",
			len(wi.Product), len(wi.Pattern))
	}
	// guard with full expression grammar
	g := MustParseRuleBody("g", `replace x, y by x + y if x > 0 && !(y > 10) || x == y`, nil)
	if g.Guard == nil {
		t.Fatal("guard missing")
	}
}

func TestParseRuleErrors(t *testing.T) {
	cases := []string{
		"replace by x",          // empty pattern
		"replace *w by *w",      // top-level omega
		"replace x",             // missing by
		"replace x by",          // missing product
		"with x by x",           // wrong keyword
		"replace <*a, *b> by x", // two omegas in one solution pattern
		"frobnicate x by y",     // unknown keyword
	}
	for _, src := range cases {
		if _, err := ParseRuleBody("r", src, nil); err == nil {
			t.Errorf("ParseRuleBody(%q) succeeded, want error", src)
		}
	}
}

func TestParseByNothing(t *testing.T) {
	r := MustParseRuleBody("drop", "replace-one x by nothing", nil)
	if len(r.Product) != 0 {
		t.Fatalf("products: %d, want 0", len(r.Product))
	}
	sol := NewSolution(Int(1), r)
	if err := NewEngine().Reduce(sol); err != nil {
		t.Fatal(err)
	}
	if sol.Len() != 0 {
		t.Errorf("solution after drop: %v", sol)
	}
}

func TestParseMoleculesList(t *testing.T) {
	atoms, err := ParseMolecules(`RES:<42>, ADAPT, DST:<T1>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 3 {
		t.Fatalf("got %d molecules", len(atoms))
	}
	if !atoms[1].Equal(Ident("ADAPT")) {
		t.Errorf("atoms[1] = %v", atoms[1])
	}
	// Empty input is an empty message.
	none, err := ParseMolecules("")
	if err != nil || len(none) != 0 {
		t.Errorf("empty molecules: %v, %v", none, err)
	}
}

func TestFormatMoleculesRoundTrip(t *testing.T) {
	atoms := []Atom{
		Tuple{Ident("RES"), NewSolution(Int(42))},
		Ident("ADAPT"),
		List{Str("a"), Str("b")},
		// The shape of an agent status push: T3:<SRC:<T1>, SRV:"s1",
		// IN:<>, RES:<"out", [1, 2]>>, TRIGGER:"a1".
		Tuple{Ident("T3"), NewSolution(
			Tuple{Ident("SRC"), NewSolution(Ident("T1"))},
			Tuple{Ident("SRV"), Str("s1")},
			Tuple{Ident("IN"), NewSolution()},
			Tuple{Ident("RES"), NewSolution(Str("out"), List{Int(1), Int(2)})},
		)},
		Tuple{Ident("TRIGGER"), Str("a1")},
	}
	s := FormatMolecules(atoms)
	back, err := ParseMolecules(s)
	if err != nil {
		t.Fatalf("ParseMolecules(%q): %v", s, err)
	}
	if len(back) != len(atoms) {
		t.Fatalf("length mismatch: %d != %d", len(back), len(atoms))
	}
	for i := range atoms {
		if !atoms[i].Equal(back[i]) {
			t.Errorf("molecule %d: %v != %v", i, atoms[i], back[i])
		}
	}
}

func TestSyntaxErrorPositions(t *testing.T) {
	_, err := Parse("<1,\n  &&>")
	if err == nil {
		t.Fatal("want error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if se.Line != 2 {
		t.Errorf("error line = %d, want 2 (%v)", se.Line, err)
	}
	if !strings.Contains(err.Error(), "hocl:") {
		t.Errorf("error should be prefixed: %v", err)
	}
}

func TestPrettyIsParseable(t *testing.T) {
	src := `<T1:<SRC:<>, DST:<T2, T3>>, T2:<SRC:<T1>>, 5>`
	a := mustParseGround(t, src)
	pretty := Pretty(a)
	if !strings.Contains(pretty, "\n") {
		t.Error("Pretty output should be multi-line for nested solutions")
	}
	b := mustParseGround(t, pretty)
	if !a.Equal(b) {
		t.Errorf("Pretty round trip failed:\n%s", pretty)
	}
}
