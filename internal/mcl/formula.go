// Package mcl implements an action-based modal mu-calculus model checker
// over labeled transition systems, playing the role of CADP's EVALUATOR in
// the Multival verification flow.
//
// Formulas are built from boolean connectives, the modalities ⟨α⟩φ and
// [α]φ whose action formula α selects transition labels, and the least/
// greatest fixpoint operators mu X.φ / nu X.φ. Derived temporal operators
// (reachability, invariance, inevitability, weak modalities, deadlock
// freedom) are provided as constructors, and a textual syntax is accepted
// by Parse.
package mcl

import (
	"fmt"
	"regexp"
	"strings"

	"multival/internal/lts"
)

// ActionFormula is a predicate on transition labels.
type ActionFormula interface {
	// Matches reports whether the action formula holds for a label.
	Matches(label string) bool
	// String renders the action formula in concrete syntax.
	String() string
}

type afAny struct{}
type afTau struct{}
type afLiteral struct{ label string }
type afRegex struct{ re *regexp.Regexp }
type afNot struct{ a ActionFormula }
type afAnd struct{ a, b ActionFormula }
type afOr struct{ a, b ActionFormula }

// AnyAction matches every label, including tau.
func AnyAction() ActionFormula { return afAny{} }

// TauAction matches exactly the internal action.
func TauAction() ActionFormula { return afTau{} }

// Action matches exactly the given label.
func Action(label string) ActionFormula { return afLiteral{label} }

// ActionRegex matches labels against an anchored regular expression.
func ActionRegex(pattern string) (ActionFormula, error) {
	re, err := regexp.Compile("^(?:" + pattern + ")$")
	if err != nil {
		return nil, fmt.Errorf("mcl: bad action pattern %q: %w", pattern, err)
	}
	return afRegex{re}, nil
}

// MustActionRegex is ActionRegex that panics on a bad pattern; for use with
// compile-time constant patterns.
func MustActionRegex(pattern string) ActionFormula {
	a, err := ActionRegex(pattern)
	if err != nil {
		panic(err)
	}
	return a
}

// NotAction negates an action formula.
func NotAction(a ActionFormula) ActionFormula { return afNot{a} }

// AndAction conjoins action formulas.
func AndAction(a, b ActionFormula) ActionFormula { return afAnd{a, b} }

// OrAction disjoins action formulas.
func OrAction(a, b ActionFormula) ActionFormula { return afOr{a, b} }

// VisibleAction matches every label except tau.
func VisibleAction() ActionFormula { return afNot{afTau{}} }

func (afAny) Matches(string) bool         { return true }
func (afAny) String() string              { return "true" }
func (afTau) Matches(label string) bool   { return label == lts.Tau }
func (afTau) String() string              { return "tau" }
func (a afLiteral) Matches(l string) bool { return l == a.label }
func (a afLiteral) String() string        { return quoteAction(a.label) }
func (a afRegex) Matches(l string) bool   { return a.re.MatchString(l) }
func (a afRegex) String() string          { return regexSource(trimAnchor(a.re.String())) }
func (a afNot) Matches(l string) bool     { return !a.a.Matches(l) }
func (a afNot) String() string            { return printed(a) }
func (a afAnd) Matches(l string) bool     { return a.a.Matches(l) && a.b.Matches(l) }
func (a afAnd) String() string            { return printed(a) }
func (a afOr) Matches(l string) bool      { return a.a.Matches(l) || a.b.Matches(l) }
func (a afOr) String() string             { return printed(a) }

func trimAnchor(s string) string {
	s = strings.TrimPrefix(s, "^(?:")
	return strings.TrimSuffix(s, ")$")
}

// quoteAction prints a label so the parser reads it back as the same
// literal: bare when it lexes as an identifier that is not an action
// keyword, otherwise double-quoted with '"' and '\' backslash-escaped
// (the lexer's one escape rule; every other byte stands for itself).
func quoteAction(label string) string {
	plain := label != "" && isIdentStart(label[0])
	for i := 1; plain && i < len(label); i++ {
		plain = isIdentPart(label[i])
	}
	switch label {
	case "true", "any", "tau":
		plain = false
	}
	if plain {
		return label
	}
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(label); i++ {
		if c := label[i]; c == '"' || c == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(label[i])
	}
	b.WriteByte('"')
	return b.String()
}

// regexSource prints a pattern between slashes so the lexer reads it
// back: every '/' is escaped as "\/", and a pattern ending in a
// backslash gets a neutral empty group so that backslash cannot escape
// the closing slash.
func regexSource(pattern string) string {
	pattern = strings.ReplaceAll(pattern, "/", `\/`)
	if strings.HasSuffix(pattern, `\`) {
		pattern += "(?:)"
	}
	return "/" + pattern + "/"
}

// Formula is a state formula of the modal mu-calculus.
type Formula interface {
	String() string
	isFormula()
}

type (
	fTrue  struct{}
	fFalse struct{}
	fNot   struct{ f Formula }
	fAnd   struct{ a, b Formula }
	fOr    struct{ a, b Formula }
	fDia   struct {
		act ActionFormula
		f   Formula
	}
	fBox struct {
		act ActionFormula
		f   Formula
	}
	fVar struct{ name string }
	fMu  struct {
		name string
		body Formula
	}
	fNu struct {
		name string
		body Formula
	}
)

func (fTrue) isFormula()  {}
func (fFalse) isFormula() {}
func (fNot) isFormula()   {}
func (fAnd) isFormula()   {}
func (fOr) isFormula()    {}
func (fDia) isFormula()   {}
func (fBox) isFormula()   {}
func (fVar) isFormula()   {}
func (fMu) isFormula()    {}
func (fNu) isFormula()    {}

func (fTrue) String() string  { return "true" }
func (fFalse) String() string { return "false" }
func (f fNot) String() string { return printed(f) }
func (f fAnd) String() string { return printed(f) }
func (f fOr) String() string  { return printed(f) }
func (f fDia) String() string { return printed(f) }
func (f fBox) String() string { return printed(f) }
func (f fVar) String() string { return f.name }
func (f fMu) String() string  { return printed(f) }
func (f fNu) String() string  { return printed(f) }

// printed prints a composite formula or action formula in one walk into
// one builder, so printing is linear in the length of the text rather
// than copying every operand's text once per level above it. Operands
// of the state operators are parenthesized unless atomic or prefix.
func printed(f fmt.Stringer) string {
	var b strings.Builder
	var write func(f fmt.Stringer, operand bool)
	write = func(f fmt.Stringer, operand bool) {
		switch f.(type) {
		case fAnd, fOr, fMu, fNu:
			if operand {
				b.WriteByte('(')
				defer b.WriteByte(')')
			}
		}
		switch f := f.(type) {
		case fNot:
			b.WriteString("not ")
			write(f.f, true)
		case fAnd:
			write(f.a, true)
			b.WriteString(" and ")
			write(f.b, true)
		case fOr:
			write(f.a, true)
			b.WriteString(" or ")
			write(f.b, true)
		case fDia:
			b.WriteByte('<')
			write(f.act, false)
			b.WriteString("> ")
			write(f.f, true)
		case fBox:
			b.WriteByte('[')
			write(f.act, false)
			b.WriteString("] ")
			write(f.f, true)
		case fMu:
			b.WriteString("mu " + f.name + " . ")
			write(f.body, false)
		case fNu:
			b.WriteString("nu " + f.name + " . ")
			write(f.body, false)
		case afNot:
			b.WriteByte('~')
			write(f.a, false)
		case afAnd:
			b.WriteByte('(')
			write(f.a, false)
			b.WriteString(" & ")
			write(f.b, false)
			b.WriteByte(')')
		case afOr:
			b.WriteByte('(')
			write(f.a, false)
			b.WriteString(" | ")
			write(f.b, false)
			b.WriteByte(')')
		default:
			b.WriteString(f.String())
		}
	}
	write(f, false)
	return b.String()
}

// True is the formula satisfied by every state.
func True() Formula { return fTrue{} }

// False is the unsatisfiable formula.
func False() Formula { return fFalse{} }

// Not negates a formula. Fixpoint variables may only occur under an even
// number of negations (checked by the evaluator).
func Not(f Formula) Formula { return fNot{f} }

// And conjoins formulas (variadic; And() is True).
func And(fs ...Formula) Formula {
	if len(fs) == 0 {
		return True()
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = fAnd{out, f}
	}
	return out
}

// Or disjoins formulas (variadic; Or() is False).
func Or(fs ...Formula) Formula {
	if len(fs) == 0 {
		return False()
	}
	out := fs[0]
	for _, f := range fs[1:] {
		out = fOr{out, f}
	}
	return out
}

// Implies is material implication.
func Implies(a, b Formula) Formula { return fOr{fNot{a}, b} }

// Dia is the diamond modality ⟨act⟩f: some act-transition leads to a state
// satisfying f.
func Dia(act ActionFormula, f Formula) Formula { return fDia{act, f} }

// Box is the box modality [act]f: every act-transition leads to a state
// satisfying f.
func Box(act ActionFormula, f Formula) Formula { return fBox{act, f} }

// Var references a fixpoint variable.
func Var(name string) Formula { return fVar{name} }

// Mu is the least fixpoint mu name . body.
func Mu(name string, body Formula) Formula { return fMu{name, body} }

// Nu is the greatest fixpoint nu name . body.
func Nu(name string, body Formula) Formula { return fNu{name, body} }
