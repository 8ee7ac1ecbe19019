package mcl

import (
	"fmt"
	"strings"
	"unicode"
)

// Parse parses a formula in the concrete syntax below (a pragmatic subset
// of the CADP EVALUATOR input language):
//
//	formula  ::= "mu" IDENT "." formula | "nu" IDENT "." formula
//	           | implication
//	impl     ::= disj ("->" formula)?
//	disj     ::= conj ("or" conj)*
//	conj     ::= unary ("and" unary)*
//	unary    ::= "not" unary
//	           | "<" actf ">" unary | "[" actf "]" unary
//	           | "mu" IDENT "." formula | "nu" IDENT "." formula
//	           | "true" | "false" | IDENT | "(" formula ")"
//	actf     ::= adisj
//	adisj    ::= aconj ("|" aconj)*
//	aconj    ::= aunary ("&" aunary)*
//	aunary   ::= "~" aunary | "true" | "any" | "tau" | IDENT
//	           | STRING | "/" REGEX "/" | "(" actf ")"
//
// IDENT is [A-Za-z_][A-Za-z0-9_]*. STRING is double-quoted with backslash
// escapes. Inside an action formula, an IDENT is an action literal; in a
// state formula it is a fixpoint variable.
func Parse(input string) (Formula, error) {
	p := &parser{src: input}
	p.next()
	f, err := p.parseFormula()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected %q after formula", p.tok.text)
	}
	return f, nil
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokRegex
	tokLAngle // <
	tokRAngle // >
	tokLBrack // [
	tokRBrack // ]
	tokLParen // (
	tokRParen // )
	tokDot    // .
	tokArrow  // ->
	tokTilde  // ~
	tokAmp    // &
	tokPipe   // |
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// MaxNesting bounds how deeply a formula may nest: the height of its
// syntax tree, counting state and action operators alike (a lone "true"
// has height 1, "not true" height 2). Deeper input is a parse error, not
// a stack overflow in this recursive-descent parser or in the recursive
// printer and checker behind it. Parentheses add no height, so the
// printed form of an accepted formula, which parenthesizes an operand at
// most once, parses back; the parser gives up at once after 2*MaxNesting
// nested operators and parentheses.
const MaxNesting = 1000

type parser struct {
	src    string
	pos    int
	tok    token
	open   int // operators and parentheses enclosing the current token
	height int // height of the (action) formula parsed last
}

// enter opens one more nested operator or parenthesis.
func (p *parser) enter() error {
	if p.open++; p.open > 2*MaxNesting {
		return p.errorf("formula nested deeper than %d levels", MaxNesting)
	}
	return nil
}

// setHeight records the height of the formula just built.
func (p *parser) setHeight(h int) error {
	if p.height = h; h > MaxNesting {
		return p.errorf("formula nested deeper than %d levels", MaxNesting)
	}
	return nil
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("mcl: parse error at offset %d: %s", p.tok.pos, fmt.Sprintf(format, args...))
}

func (p *parser) next() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
	start := p.pos
	if p.pos >= len(p.src) {
		p.tok = token{tokEOF, "", start}
		return
	}
	c := p.src[p.pos]
	switch {
	case c == '<':
		p.pos++
		p.tok = token{tokLAngle, "<", start}
	case c == '>':
		p.pos++
		p.tok = token{tokRAngle, ">", start}
	case c == '[':
		p.pos++
		p.tok = token{tokLBrack, "[", start}
	case c == ']':
		p.pos++
		p.tok = token{tokRBrack, "]", start}
	case c == '(':
		p.pos++
		p.tok = token{tokLParen, "(", start}
	case c == ')':
		p.pos++
		p.tok = token{tokRParen, ")", start}
	case c == '.':
		p.pos++
		p.tok = token{tokDot, ".", start}
	case c == '~':
		p.pos++
		p.tok = token{tokTilde, "~", start}
	case c == '&':
		p.pos++
		p.tok = token{tokAmp, "&", start}
	case c == '|':
		p.pos++
		p.tok = token{tokPipe, "|", start}
	case c == '-' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '>':
		p.pos += 2
		p.tok = token{tokArrow, "->", start}
	case c == '"':
		p.pos++
		var b strings.Builder
		for p.pos < len(p.src) && p.src[p.pos] != '"' {
			if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) {
				p.pos++
			}
			b.WriteByte(p.src[p.pos])
			p.pos++
		}
		if p.pos >= len(p.src) {
			p.tok = token{tokEOF, "unterminated string", start}
			return
		}
		p.pos++ // closing quote
		p.tok = token{tokString, b.String(), start}
	case c == '/':
		p.pos++
		var b strings.Builder
		for p.pos < len(p.src) && p.src[p.pos] != '/' {
			if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/' {
				p.pos++ // \/ escapes a slash inside the pattern
			}
			b.WriteByte(p.src[p.pos])
			p.pos++
		}
		if p.pos >= len(p.src) {
			p.tok = token{tokEOF, "unterminated regex", start}
			return
		}
		p.pos++
		p.tok = token{tokRegex, b.String(), start}
	case isIdentStart(c):
		for p.pos < len(p.src) && isIdentPart(p.src[p.pos]) {
			p.pos++
		}
		p.tok = token{tokIdent, p.src[start:p.pos], start}
	default:
		p.tok = token{tokEOF, fmt.Sprintf("invalid character %q", c), start}
	}
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9'
}

func (p *parser) expect(kind tokKind, what string) error {
	if p.tok.kind != kind {
		return p.errorf("expected %s, got %q", what, p.tok.text)
	}
	p.next()
	return nil
}

func (p *parser) parseFormula() (Formula, error) {
	return p.parseImpl()
}

func (p *parser) parseImpl() (Formula, error) {
	left, err := p.parseDisj()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokArrow {
		hl := p.height
		p.next()
		if err := p.enter(); err != nil {
			return nil, err
		}
		right, err := p.parseImpl()
		if err != nil {
			return nil, err
		}
		p.open--
		// a -> b is (not a) or b.
		return Implies(left, right), p.setHeight(1 + max(hl+1, p.height))
	}
	return left, nil
}

func (p *parser) parseDisj() (Formula, error) {
	left, err := p.parseConj()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokIdent && p.tok.text == "or" {
		hl := p.height
		p.next()
		right, err := p.parseConj()
		if err != nil {
			return nil, err
		}
		left = Or(left, right)
		if err := p.setHeight(1 + max(hl, p.height)); err != nil {
			return nil, err
		}
	}
	return left, nil
}

func (p *parser) parseConj() (Formula, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokIdent && p.tok.text == "and" {
		hl := p.height
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = And(left, right)
		if err := p.setHeight(1 + max(hl, p.height)); err != nil {
			return nil, err
		}
	}
	return left, nil
}

func (p *parser) parseUnary() (Formula, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.open-- }()
	switch {
	case p.tok.kind == tokIdent && p.tok.text == "not":
		p.next()
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(f), p.setHeight(p.height + 1)

	case p.tok.kind == tokLAngle:
		p.next()
		act, err := p.parseActDisj()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRAngle, "'>'"); err != nil {
			return nil, err
		}
		ha := p.height
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Dia(act, f), p.setHeight(1 + max(ha, p.height))

	case p.tok.kind == tokLBrack:
		p.next()
		act, err := p.parseActDisj()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRBrack, "']'"); err != nil {
			return nil, err
		}
		ha := p.height
		f, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Box(act, f), p.setHeight(1 + max(ha, p.height))

	case p.tok.kind == tokIdent && (p.tok.text == "mu" || p.tok.text == "nu"):
		kw := p.tok.text
		p.next()
		if p.tok.kind != tokIdent {
			return nil, p.errorf("expected variable after %s", kw)
		}
		name := p.tok.text
		p.next()
		if err := p.expect(tokDot, "'.'"); err != nil {
			return nil, err
		}
		body, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if kw == "mu" {
			return Mu(name, body), p.setHeight(p.height + 1)
		}
		return Nu(name, body), p.setHeight(p.height + 1)

	case p.tok.kind == tokIdent && p.tok.text == "true":
		p.next()
		return True(), p.setHeight(1)

	case p.tok.kind == tokIdent && p.tok.text == "false":
		p.next()
		return False(), p.setHeight(1)

	case p.tok.kind == tokIdent:
		name := p.tok.text
		p.next()
		return Var(name), p.setHeight(1)

	case p.tok.kind == tokLParen:
		p.next()
		f, err := p.parseFormula()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return f, nil

	default:
		return nil, p.errorf("unexpected %q in formula", p.tok.text)
	}
}

func (p *parser) parseActDisj() (ActionFormula, error) {
	left, err := p.parseActConj()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPipe {
		hl := p.height
		p.next()
		right, err := p.parseActConj()
		if err != nil {
			return nil, err
		}
		left = OrAction(left, right)
		if err := p.setHeight(1 + max(hl, p.height)); err != nil {
			return nil, err
		}
	}
	return left, nil
}

func (p *parser) parseActConj() (ActionFormula, error) {
	left, err := p.parseActUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAmp {
		hl := p.height
		p.next()
		right, err := p.parseActUnary()
		if err != nil {
			return nil, err
		}
		left = AndAction(left, right)
		if err := p.setHeight(1 + max(hl, p.height)); err != nil {
			return nil, err
		}
	}
	return left, nil
}

func (p *parser) parseActUnary() (ActionFormula, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.open-- }()
	switch p.tok.kind {
	case tokTilde:
		p.next()
		a, err := p.parseActUnary()
		if err != nil {
			return nil, err
		}
		return NotAction(a), p.setHeight(p.height + 1)
	case tokIdent:
		text := p.tok.text
		p.next()
		p.height = 1
		switch text {
		case "true", "any":
			return AnyAction(), nil
		case "tau":
			return TauAction(), nil
		default:
			return Action(text), nil
		}
	case tokString:
		text := p.tok.text
		p.next()
		p.height = 1
		return Action(text), nil
	case tokRegex:
		pat := p.tok.text
		p.next()
		p.height = 1
		return ActionRegex(pat)
	case tokLParen:
		p.next()
		a, err := p.parseActDisj()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return a, nil
	default:
		return nil, p.errorf("unexpected %q in action formula", p.tok.text)
	}
}
