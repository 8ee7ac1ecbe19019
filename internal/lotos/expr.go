package lotos

import (
	"multival/internal/process"
)

// Expression grammar (loosest to tightest):
//
//	expr    ::= "if" expr "then" expr "else" expr | orE
//	orE     ::= andE ("or" andE)*
//	andE    ::= notE ("and" notE)*
//	notE    ::= "not" notE | cmp
//	cmp     ::= add (("=="|"!="|"<"|"<="|">"|">=") add)?
//	add     ::= mul (("+"|"-") mul)*
//	mul     ::= unary (("*"|"div"|"mod") unary)*
//	unary   ::= "-" unary | primary
//	primary ::= INT | "true" | "false" | IDENT | "(" expr ")"
func (p *parser) parseExpr() (process.Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	if p.isKw("if") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if ok, err := p.acceptKw("then"); err != nil {
			return nil, err
		} else if !ok {
			return nil, p.errorf("expected 'then'")
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if ok, err := p.acceptKw("else"); err != nil {
			return nil, err
		} else if !ok {
			return nil, p.errorf("expected 'else'")
		}
		b, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return process.Ite(c, a, b), nil
	}
	return p.parseOr()
}

func (p *parser) parseOr() (process.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKw("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = process.OrE(left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (process.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKw("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = process.AndE(left, right)
	}
	return left, nil
}

func (p *parser) parseNot() (process.Expr, error) {
	if p.isKw("not") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		p.depth--
		return process.NotExpr(x), nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (process.Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	var mk func(a, b process.Expr) process.Expr
	switch p.tok.kind {
	case tEq:
		mk = process.Eq
	case tNe:
		mk = process.Ne
	case tLt:
		mk = process.Lt
	case tLe:
		mk = process.Le
	case tGt:
		mk = process.Gt
	case tGe:
		mk = process.Ge
	default:
		return left, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	right, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	return mk(left, right), nil
}

func (p *parser) parseAdd() (process.Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tPlus || p.tok.kind == tMinus {
		op := p.tok.kind
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		if op == tPlus {
			left = process.Add(left, right)
		} else {
			left = process.Sub(left, right)
		}
	}
	return left, nil
}

func (p *parser) parseMul() (process.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var mk func(a, b process.Expr) process.Expr
		switch {
		case p.tok.kind == tStar:
			mk = process.Mul
		case p.isKw("div"):
			mk = process.Div
		case p.isKw("mod"):
			mk = process.Mod
		default:
			return left, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = mk(left, right)
	}
}

func (p *parser) parseUnary() (process.Expr, error) {
	if p.tok.kind == tMinus {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		return process.Neg{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (process.Expr, error) {
	switch {
	case p.tok.kind == tInt:
		n := p.tok.n
		return process.Int(n), p.advance()
	case p.isKw("true"):
		return process.Bool(true), p.advance()
	case p.isKw("false"):
		return process.Bool(false), p.advance()
	case p.tok.kind == tIdent:
		if isKeyword(p.tok.text) {
			return nil, p.errorf("unexpected keyword %q in expression", p.tok.text)
		}
		name := p.tok.text
		return process.V(name), p.advance()
	case p.tok.kind == tLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errorf("unexpected %s in expression", p.tok)
	}
}
