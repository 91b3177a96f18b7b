package hocl

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Parse parses a complete HOCL program: a chain of let-bound rule
// definitions followed by the initial solution.
//
//	let max = replace x, y by x if x >= y in
//	let clean = replace-one <max, *w> by *w in
//	<<2, 3, 5, 8, 9, max>, clean>
//
// Rule references in the solution body are resolved against the let
// scope; the body may not contain free variables.
func Parse(src string) (*Solution, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	return p.parseProgram()
}

// ParseRuleBody parses a rule definition body such as
// "replace x, y by x if x >= y" under the given named-rule scope (which
// may be nil). This is how HOCLflow generates the gw_* and adaptation
// rules from templates.
func ParseRuleBody(name, src string, scope map[string]*Rule) (*Rule, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	if scope != nil {
		p.scope = scope
	}
	r, err := p.parseRuleBody(name)
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %s after rule body", p.tok)
	}
	return r, nil
}

// MustParseRuleBody is ParseRuleBody for statically-known rule text;
// it panics on error.
func MustParseRuleBody(name, src string, scope map[string]*Rule) *Rule {
	r, err := ParseRuleBody(name, src, scope)
	if err != nil {
		panic(err)
	}
	return r
}

type parser struct {
	lx    *lexer
	tok   token
	scope map[string]*Rule
}

func newParser(src string) (*parser, error) {
	p := &parser{lx: newLexer(src), scope: map[string]*Rule{}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errf("expected %s, found %s", what, p.tok)
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) expectKeyword(kw string) error {
	if p.tok.kind != tokKeyword || p.tok.text != kw {
		return p.errf("expected %q, found %s", kw, p.tok)
	}
	return p.advance()
}

func (p *parser) atKeyword(kw string) bool {
	return p.tok.kind == tokKeyword && p.tok.text == kw
}

func lowerIdent(name string) bool {
	r, _ := utf8.DecodeRuneInString(name)
	return unicode.IsLower(r) || r == '_'
}

// --- program -------------------------------------------------------------

func (p *parser) parseProgram() (*Solution, error) {
	for p.atKeyword("let") {
		if err := p.parseLet(); err != nil {
			return nil, err
		}
	}
	a, err := p.parseGround()
	if err != nil {
		return nil, err
	}
	sol, ok := a.(*Solution)
	if !ok {
		return nil, fmt.Errorf("hocl: program body must be a solution, got %s", a.Kind())
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected %s after program body", p.tok)
	}
	return sol, nil
}

func (p *parser) parseLet() error {
	if err := p.expectKeyword("let"); err != nil {
		return err
	}
	nameTok, err := p.expect(tokIdent, "rule name")
	if err != nil {
		return err
	}
	if !lowerIdent(nameTok.text) {
		return p.errf("rule name %q must start with a lowercase letter", nameTok.text)
	}
	if _, err := p.expect(tokAssign, "'='"); err != nil {
		return err
	}
	r, err := p.parseRuleBody(nameTok.text)
	if err != nil {
		return err
	}
	if err := p.expectKeyword("in"); err != nil {
		return err
	}
	p.scope[nameTok.text] = r
	return nil
}

// parseRuleBody parses "replace P by M [if G]", "replace-one P by M
// [if G]" or the HOCLflow sugar "with P inject M".
func (p *parser) parseRuleBody(name string) (*Rule, error) {
	switch {
	case p.atKeyword("replace"), p.atKeyword("replace-one"):
		oneShot := p.tok.text == "replace-one"
		if err := p.advance(); err != nil {
			return nil, err
		}
		pats, err := p.parsePatternList()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		prods, err := p.parseProductList()
		if err != nil {
			return nil, err
		}
		var guard Expr
		if p.atKeyword("if") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			guard, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		r := &Rule{Name: name, Pattern: pats, Guard: guard, Product: prods, OneShot: oneShot}
		return r, p.validateRule(r)

	case p.atKeyword("with"):
		// with X inject M  ≡  replace-one X by X, M (HOCLflow §III-A).
		if err := p.advance(); err != nil {
			return nil, err
		}
		pats, err := p.parsePatternList()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("inject"); err != nil {
			return nil, err
		}
		injected, err := p.parseProductList()
		if err != nil {
			return nil, err
		}
		reemit, err := patternsToExprs(pats)
		if err != nil {
			return nil, err
		}
		r := &Rule{Name: name, Pattern: pats, Product: append(reemit, injected...), OneShot: true}
		return r, p.validateRule(r)

	default:
		return nil, p.errf("expected 'replace', 'replace-one' or 'with', found %s", p.tok)
	}
}

// validateRule rejects top-level omega patterns (they only make sense
// inside solution patterns).
func (p *parser) validateRule(r *Rule) error {
	for _, pat := range r.Pattern {
		if _, ok := pat.(*POmega); ok {
			return fmt.Errorf("hocl: rule %s: omega pattern outside a solution pattern", r.Name)
		}
	}
	if len(r.Pattern) == 0 {
		return fmt.Errorf("hocl: rule %s: empty pattern", r.Name)
	}
	return nil
}

// --- patterns ------------------------------------------------------------

func (p *parser) parsePatternList() ([]Pattern, error) {
	var pats []Pattern
	for {
		pat, err := p.parsePatternElem()
		if err != nil {
			return nil, err
		}
		pats = append(pats, pat)
		if p.tok.kind != tokComma {
			return pats, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

// parsePatternElem parses a pattern molecule: a primary or a tuple chain
// prim:prim:...
func (p *parser) parsePatternElem() (Pattern, error) {
	first, err := p.parsePatternPrimary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokColon {
		return first, nil
	}
	elems := []Pattern{first}
	for p.tok.kind == tokColon {
		if err := p.advance(); err != nil {
			return nil, err
		}
		next, err := p.parsePatternPrimary()
		if err != nil {
			return nil, err
		}
		elems = append(elems, next)
	}
	return &PTuple{Elems: elems}, nil
}

func (p *parser) parsePatternPrimary() (Pattern, error) {
	switch p.tok.kind {
	case tokInt:
		v, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &PConst{Val: Int(v)}, nil

	case tokFloat:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &PConst{Val: Float(v)}, nil

	case tokString:
		s, err := unquote(p.tok.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &PConst{Val: Str(s)}, nil

	case tokKeyword:
		switch p.tok.text {
		case "true", "false":
			v := p.tok.text == "true"
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &PConst{Val: Bool(v)}, nil
		}
		return nil, p.errf("unexpected keyword %q in pattern", p.tok.text)

	case tokOp:
		if p.tok.text == "-" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			switch p.tok.kind {
			case tokInt:
				v, _ := strconv.ParseInt(p.tok.text, 10, 64)
				if err := p.advance(); err != nil {
					return nil, err
				}
				return &PConst{Val: Int(-v)}, nil
			case tokFloat:
				v, _ := strconv.ParseFloat(p.tok.text, 64)
				if err := p.advance(); err != nil {
					return nil, err
				}
				return &PConst{Val: Float(-v)}, nil
			}
			return nil, p.errf("expected number after '-' in pattern")
		}
		return nil, p.errf("unexpected operator %q in pattern", p.tok.text)

	case tokStar:
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expect(tokIdent, "omega variable name")
		if err != nil {
			return nil, err
		}
		return &POmega{Name: name.text}, nil

	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if lowerIdent(name) {
			if _, ok := p.scope[name]; ok {
				return &PRuleRef{Name: name}, nil
			}
			return &PVar{Name: name}, nil
		}
		return &PConst{Val: Ident(name)}, nil

	case tokLAngle:
		return p.parseSolutionPattern()

	case tokLBrack:
		if err := p.advance(); err != nil {
			return nil, err
		}
		var elems []Pattern
		if p.tok.kind != tokRBrack {
			for {
				e, err := p.parsePatternElem()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if _, err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		return &PList{Elems: elems}, nil

	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parsePatternElem()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return inner, nil

	default:
		return nil, p.errf("unexpected %s in pattern", p.tok)
	}
}

func (p *parser) parseSolutionPattern() (Pattern, error) {
	if _, err := p.expect(tokLAngle, "'<'"); err != nil {
		return nil, err
	}
	sp := &PSolution{}
	if p.tok.kind != tokRAngle {
		for {
			e, err := p.parsePatternElem()
			if err != nil {
				return nil, err
			}
			if om, ok := e.(*POmega); ok {
				if sp.Rest != "" {
					return nil, p.errf("solution pattern has more than one omega variable")
				}
				sp.Rest = om.Name
			} else {
				sp.Elems = append(sp.Elems, e)
			}
			if p.tok.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if _, err := p.expect(tokRAngle, "'>'"); err != nil {
		return nil, err
	}
	return sp, nil
}

// --- products and expressions ---------------------------------------------

func (p *parser) parseProductList() ([]Expr, error) {
	if p.atKeyword("nothing") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	var prods []Expr
	for {
		e, err := p.parseElemExpr()
		if err != nil {
			return nil, err
		}
		prods = append(prods, e)
		if p.tok.kind != tokComma {
			return prods, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

// parseExpr parses a full expression (guards): boolean and comparison
// operators are available at the top level.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "||" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &EBinop{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "&&" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &EBinop{Op: "&&", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.tok.kind == tokOp && (p.tok.text == "==" || p.tok.text == "!=" ||
			p.tok.text == "<=" || p.tok.text == ">="):
			op = p.tok.text
		case p.tok.kind == tokLAngle:
			op = "<"
		case p.tok.kind == tokRAngle:
			op = ">"
		default:
			return l, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		l = &EBinop{Op: op, L: l, R: r}
	}
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &EBinop{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for (p.tok.kind == tokOp && (p.tok.text == "/" || p.tok.text == "%")) ||
		p.tok.kind == tokStar {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &EBinop{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.tok.kind == tokOp && (p.tok.text == "-" || p.tok.text == "!") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &EUnop{Op: op, X: x}, nil
	}
	if p.tok.kind == tokStar {
		// Prefix star: omega reference.
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expect(tokIdent, "omega variable name")
		if err != nil {
			return nil, err
		}
		return &EVar{Name: name.text, Omega: true}, nil
	}
	return p.parseTupleChain()
}

// parseElemExpr parses an element-position expression (solution, list and
// tuple elements, call arguments, products): arithmetic is available but
// comparisons are not, so '<' and '>' remain structural delimiters.
// Parenthesised sub-expressions re-enable the full grammar.
func (p *parser) parseElemExpr() (Expr, error) {
	if p.tok.kind == tokStar {
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expect(tokIdent, "omega variable name")
		if err != nil {
			return nil, err
		}
		return &EVar{Name: name.text, Omega: true}, nil
	}
	return p.parseAdd()
}

func (p *parser) parseTupleChain() (Expr, error) {
	first, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokColon {
		return first, nil
	}
	elems := []Expr{first}
	for p.tok.kind == tokColon {
		if err := p.advance(); err != nil {
			return nil, err
		}
		next, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		elems = append(elems, next)
	}
	return &ETuple{Elems: elems}, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case tokInt:
		v, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &ELit{Val: Int(v)}, nil

	case tokFloat:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &ELit{Val: Float(v)}, nil

	case tokString:
		s, err := unquote(p.tok.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &ELit{Val: Str(s)}, nil

	case tokKeyword:
		switch p.tok.text {
		case "true", "false":
			v := p.tok.text == "true"
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &ELit{Val: Bool(v)}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", p.tok.text)

	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLParen {
			// Function call.
			if err := p.advance(); err != nil {
				return nil, err
			}
			var args []Expr
			if p.tok.kind != tokRParen {
				for {
					a, err := p.parseElemExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.tok.kind != tokComma {
						break
					}
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
			return &ECall{Fn: name, Args: args}, nil
		}
		if lowerIdent(name) {
			if r, ok := p.scope[name]; ok {
				return &ELit{Val: r}, nil
			}
			return &EVar{Name: name}, nil
		}
		return &ELit{Val: Ident(name)}, nil

	case tokLAngle:
		if err := p.advance(); err != nil {
			return nil, err
		}
		var elems []Expr
		if p.tok.kind != tokRAngle {
			for {
				e, err := p.parseElemExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if _, err := p.expect(tokRAngle, "'>'"); err != nil {
			return nil, err
		}
		return &ESolution{Elems: elems}, nil

	case tokLBrack:
		if err := p.advance(); err != nil {
			return nil, err
		}
		var elems []Expr
		if p.tok.kind != tokRBrack {
			for {
				e, err := p.parseElemExpr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if _, err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		return &EList{Elems: elems}, nil

	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.atKeyword("rule") {
			r, err := p.parseRuleLiteral()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
			return &ELit{Val: r}, nil
		}
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return inner, nil

	default:
		return nil, p.errf("unexpected %s in expression", p.tok)
	}
}

// parseRuleLiteral parses "rule name = <body>" (the caller consumed '('
// and will consume ')'). The name "_" denotes an anonymous rule.
func (p *parser) parseRuleLiteral() (*Rule, error) {
	if err := p.expectKeyword("rule"); err != nil {
		return nil, err
	}
	nameTok, err := p.expect(tokIdent, "rule name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokAssign, "'='"); err != nil {
		return nil, err
	}
	name := nameTok.text
	if name == "_" {
		name = ""
	}
	return p.parseRuleBody(name)
}

// --- ground molecules ------------------------------------------------------

// parseGround parses a molecule with no free variables: the program body,
// and the wire format for messages. Lowercase identifiers must resolve to
// let-bound rules.
func (p *parser) parseGround() (Atom, error) {
	first, err := p.parseGroundPrimary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokColon {
		return first, nil
	}
	elems := []Atom{first}
	for p.tok.kind == tokColon {
		if err := p.advance(); err != nil {
			return nil, err
		}
		next, err := p.parseGroundPrimary()
		if err != nil {
			return nil, err
		}
		elems = append(elems, next)
	}
	return Tuple(elems), nil
}

func (p *parser) parseGroundPrimary() (Atom, error) {
	switch p.tok.kind {
	case tokInt:
		v, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", p.tok.text)
		}
		return Int(v), p.advance()

	case tokFloat:
		v, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", p.tok.text)
		}
		return Float(v), p.advance()

	case tokString:
		s, err := unquote(p.tok.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		return Str(s), p.advance()

	case tokKeyword:
		switch p.tok.text {
		case "true":
			return Bool(true), p.advance()
		case "false":
			return Bool(false), p.advance()
		}
		return nil, p.errf("unexpected keyword %q in molecule", p.tok.text)

	case tokOp:
		if p.tok.text == "-" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			switch p.tok.kind {
			case tokInt:
				v, _ := strconv.ParseInt(p.tok.text, 10, 64)
				return Int(-v), p.advance()
			case tokFloat:
				v, _ := strconv.ParseFloat(p.tok.text, 64)
				return Float(-v), p.advance()
			}
			return nil, p.errf("expected number after '-'")
		}
		return nil, p.errf("unexpected operator %q in molecule", p.tok.text)

	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if lowerIdent(name) {
			if r, ok := p.scope[name]; ok {
				return r, nil
			}
			return nil, p.errf("unbound identifier %q in molecule (variables are not allowed here)", name)
		}
		return Ident(name), nil

	case tokLAngle:
		if err := p.advance(); err != nil {
			return nil, err
		}
		sol := NewSolution()
		if p.tok.kind != tokRAngle {
			for {
				a, err := p.parseGround()
				if err != nil {
					return nil, err
				}
				sol.Add(a)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if _, err := p.expect(tokRAngle, "'>'"); err != nil {
			return nil, err
		}
		return sol, nil

	case tokLBrack:
		if err := p.advance(); err != nil {
			return nil, err
		}
		var elems List
		if p.tok.kind != tokRBrack {
			for {
				a, err := p.parseGround()
				if err != nil {
					return nil, err
				}
				elems = append(elems, a)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if _, err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		return elems, nil

	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.atKeyword("rule") {
			r, err := p.parseRuleLiteral()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return nil, err
			}
			return r, nil
		}
		// Parenthesised molecule: grouping for nested tuples, A:(B:C).
		inner, err := p.parseGround()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return inner, nil

	default:
		return nil, p.errf("unexpected %s in molecule", p.tok)
	}
}
