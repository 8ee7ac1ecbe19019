package process

import (
	"fmt"
	"sort"
	"strings"
)

// Offer is one communication offer of an action: either an emission !e or
// a finite-domain acceptance ?x:lo..hi (integers) / ?x:bool.
type Offer struct {
	// Emit, when non-nil, makes this an emission offer.
	Emit Expr
	// Var is the variable bound by an acceptance offer.
	Var string
	// Lo, Hi give the (inclusive) integer domain of an acceptance offer.
	Lo, Hi int
	// BoolDomain makes the acceptance range over {false, true} instead.
	BoolDomain bool
}

// Send builds an emission offer.
func Send(e Expr) Offer { return Offer{Emit: e} }

// SendInt builds an emission offer of an integer constant.
func SendInt(n int) Offer { return Offer{Emit: IntLit{n}} }

// Recv builds an acceptance offer over the inclusive integer range lo..hi.
func Recv(name string, lo, hi int) Offer { return Offer{Var: name, Lo: lo, Hi: hi} }

// RecvBool builds an acceptance offer over booleans.
func RecvBool(name string) Offer { return Offer{Var: name, BoolDomain: true} }

func (o Offer) String() string {
	if o.Emit != nil {
		return "!" + o.Emit.String()
	}
	if o.BoolDomain {
		return "?" + o.Var + ":bool"
	}
	return fmt.Sprintf("?%s:%d..%d", o.Var, o.Lo, o.Hi)
}

// Behavior is a LOTOS-like behaviour term. Terms are immutable; the
// generator rewrites them by substitution, so a reachable term is always
// closed (no free variables).
type Behavior interface {
	// String renders the term canonically. It is the state-identity
	// contract of generation: two reachable terms are one state iff
	// their strings are equal. The generator keys this identity without
	// printing the static operators Par, Hide and Rename: their key is
	// the operator, the printed gate set or rename map, and the IDs of
	// their children, which their fully parenthesized printing makes
	// equivalent to string equality. Every other term is keyed by this
	// string.
	String() string
	// subst replaces free occurrences of a variable by a value.
	subst(name string, v Value) Behavior
}

type (
	// Stop is the deadlocked behaviour.
	Stop struct{}

	// Exit is successful termination, optionally carrying result values
	// consumed by the enclosing Seq.
	Exit struct{ Results []Expr }

	// Prefix is action prefix: gate with offers, then continuation.
	Prefix struct {
		Gate   string
		Offers []Offer
		Cont   Behavior
	}

	// Guard is the guarded behaviour [Cond] -> B.
	Guard struct {
		Cond Expr
		B    Behavior
	}

	// Choice is nondeterministic choice A [] B.
	Choice struct{ A, B Behavior }

	// Par is parallel composition A |[Sync]| B; the processes must
	// synchronize on every gate in Sync and interleave otherwise.
	// Successful termination (exit) always synchronizes.
	Par struct {
		Sync []string // sorted gate names
		A, B Behavior
	}

	// Hide makes the gates internal: Hide Gates in B.
	Hide struct {
		Gates []string // sorted
		B     Behavior
	}

	// Rename maps gate names: Rename[old->new] B.
	Rename struct {
		Map map[string]string
		B   Behavior
	}

	// Seq is sequential composition A >> accept x1,... in B: when A
	// exits with results, they are bound to the Accept variables in B
	// and the composition continues as B (via an internal step).
	Seq struct {
		A      Behavior
		Accept []string
		B      Behavior
	}

	// Disable is the LOTOS disabling operator A [> B: at any point
	// before A terminates, B may preempt it; if A exits, the
	// possibility of interruption disappears.
	Disable struct{ A, B Behavior }

	// Let binds Var to the value of E in B.
	Let struct {
		Var string
		E   Expr
		B   Behavior
	}

	// Call instantiates a named process with argument expressions.
	Call struct {
		Proc string
		Args []Expr
	}
)

// B-combinator helpers for readable model construction.

// Act builds an action prefix gate<offers...>; cont.
func Act(gate string, offers []Offer, cont Behavior) Behavior {
	return Prefix{Gate: gate, Offers: offers, Cont: cont}
}

// Do builds an action prefix with no offers.
func Do(gate string, cont Behavior) Behavior {
	return Prefix{Gate: gate, Cont: cont}
}

// Alt folds a list of behaviours into a choice ([] is Stop).
func Alt(bs ...Behavior) Behavior {
	if len(bs) == 0 {
		return Stop{}
	}
	out := bs[0]
	for _, b := range bs[1:] {
		out = Choice{out, b}
	}
	return out
}

// Interleave composes behaviours with no synchronization (|||).
func Interleave(bs ...Behavior) Behavior {
	if len(bs) == 0 {
		return Exit{}
	}
	out := bs[0]
	for _, b := range bs[1:] {
		out = Par{A: out, B: b}
	}
	return out
}

// Sync composes two behaviours synchronizing on the given gates.
func SyncPar(gates []string, a, b Behavior) Behavior {
	g := append([]string(nil), gates...)
	sort.Strings(g)
	return Par{Sync: g, A: a, B: b}
}

// HideIn hides the given gates in b.
func HideIn(gates []string, b Behavior) Behavior {
	g := append([]string(nil), gates...)
	sort.Strings(g)
	return Hide{Gates: g, B: b}
}

// ---- printing ----

func (Stop) String() string { return "stop" }

func (e Exit) String() string {
	if len(e.Results) == 0 {
		return "exit"
	}
	return "exit(" + exprList(e.Results) + ")"
}

func (p Prefix) String() string {
	var b strings.Builder
	b.WriteString(p.Gate)
	for _, o := range p.Offers {
		b.WriteString(" ")
		b.WriteString(o.String())
	}
	b.WriteString("; ")
	b.WriteString(contString(p.Cont))
	return b.String()
}

func contString(b Behavior) string {
	switch b.(type) {
	case Stop, Exit, Prefix, Call, Guard:
		return b.String()
	default:
		return "(" + b.String() + ")"
	}
}

func (g Guard) String() string {
	return "[" + g.Cond.String() + "] -> " + contString(g.B)
}

func (c Choice) String() string {
	return "(" + c.A.String() + " [] " + c.B.String() + ")"
}

func (p Par) String() string {
	op := "|||"
	if len(p.Sync) > 0 {
		op = "|[" + strings.Join(p.Sync, ",") + "]|"
	}
	return "(" + p.A.String() + " " + op + " " + p.B.String() + ")"
}

func (h Hide) String() string {
	return "hide " + strings.Join(h.Gates, ",") + " in (" + h.B.String() + ")"
}

func (r Rename) String() string {
	return "rename [" + renameString(r.Map) + "] in (" + r.B.String() + ")"
}

// renameString prints a rename map canonically, sorted by source gate.
func renameString(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "->" + m[k]
	}
	return strings.Join(parts, ",")
}

func (d Disable) String() string {
	return "(" + d.A.String() + " [> " + d.B.String() + ")"
}

func (s Seq) String() string {
	mid := " >> "
	if len(s.Accept) > 0 {
		mid = " >> accept " + strings.Join(s.Accept, ",") + " in "
	}
	return "(" + s.A.String() + mid + s.B.String() + ")"
}

func (l Let) String() string {
	return "let " + l.Var + " = " + l.E.String() + " in (" + l.B.String() + ")"
}

func (c Call) String() string {
	if len(c.Args) == 0 {
		return c.Proc
	}
	return c.Proc + "(" + exprList(c.Args) + ")"
}

// ---- substitution ----

func (s Stop) subst(string, Value) Behavior { return s }

func (e Exit) subst(name string, v Value) Behavior {
	if len(e.Results) == 0 {
		return e
	}
	rs := make([]Expr, len(e.Results))
	for i, r := range e.Results {
		rs[i] = r.substExpr(name, v)
	}
	return Exit{rs}
}

func (p Prefix) subst(name string, v Value) Behavior {
	offers := make([]Offer, len(p.Offers))
	shadowed := false
	for i, o := range p.Offers {
		if shadowed {
			offers[i] = o
			continue
		}
		if o.Emit != nil {
			offers[i] = Offer{Emit: o.Emit.substExpr(name, v)}
			continue
		}
		offers[i] = o
		if o.Var == name {
			// Later offers and the continuation see the new binding.
			shadowed = true
		}
	}
	cont := p.Cont
	if !shadowed {
		cont = cont.subst(name, v)
	}
	return Prefix{p.Gate, offers, cont}
}

func (g Guard) subst(name string, v Value) Behavior {
	return Guard{g.Cond.substExpr(name, v), g.B.subst(name, v)}
}

func (c Choice) subst(name string, v Value) Behavior {
	return Choice{c.A.subst(name, v), c.B.subst(name, v)}
}

func (p Par) subst(name string, v Value) Behavior {
	return Par{p.Sync, p.A.subst(name, v), p.B.subst(name, v)}
}

func (h Hide) subst(name string, v Value) Behavior {
	return Hide{h.Gates, h.B.subst(name, v)}
}

func (r Rename) subst(name string, v Value) Behavior {
	return Rename{r.Map, r.B.subst(name, v)}
}

func (d Disable) subst(name string, v Value) Behavior {
	return Disable{d.A.subst(name, v), d.B.subst(name, v)}
}

func (s Seq) subst(name string, v Value) Behavior {
	a := s.A.subst(name, v)
	b := s.B
	// Accept variables shadow the substitution in B.
	shadow := false
	for _, acc := range s.Accept {
		if acc == name {
			shadow = true
		}
	}
	if !shadow {
		b = b.subst(name, v)
	}
	return Seq{a, s.Accept, b}
}

func (l Let) subst(name string, v Value) Behavior {
	e := l.E.substExpr(name, v)
	b := l.B
	if l.Var != name { // let shadows
		b = b.subst(name, v)
	}
	return Let{l.Var, e, b}
}

func (c Call) subst(name string, v Value) Behavior {
	args := make([]Expr, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.substExpr(name, v)
	}
	return Call{c.Proc, args}
}
