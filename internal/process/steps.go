package process

import (
	"fmt"
	"strings"

	"multival/internal/lts"
)

// maxUnfold bounds the number of structural rewrites (process calls,
// guards, lets) performed while searching for the next action of a term.
// Exceeding it indicates unguarded recursion such as P := P [] Q.
const maxUnfold = 4096

// step is one derivation of the structural operational semantics: a
// labeled transition from a term to its continuation.
type step struct {
	gate   string  // gate name; lts.Tau for internal steps
	args   []Value // communicated values
	isExit bool    // successful termination (the LOTOS delta action)
	next   Behavior
}

// label renders the step's transition label in CADP style: GATE !v1 !v2.
func (s step) label() string {
	g := s.gate
	if s.isExit {
		g = "exit"
	}
	if len(s.args) == 0 {
		return g
	}
	var b strings.Builder
	b.WriteString(g)
	for _, v := range s.args {
		b.WriteString(" !")
		b.WriteString(v.String())
	}
	return b.String()
}

// unguardedError reports that the unfold limit was exceeded at term b.
func unguardedError(b Behavior) error {
	return fmt.Errorf("process: unguarded recursion (unfold limit %d exceeded) in %.120s", maxUnfold, b.String())
}

// steps computes all transitions of a closed behaviour term. The static
// operators (Par, Hide, Rename) are derived by the store, so each of
// their rules has one implementation whether the operator is a global
// state or nested under a sequential one, as in (P ||| Q) >> R.
func (st *store) steps(b Behavior, depth int) ([]step, error) {
	if depth > maxUnfold {
		return nil, unguardedError(b)
	}
	switch t := b.(type) {
	case Stop:
		return nil, nil

	case Exit:
		vals := make([]Value, len(t.Results))
		for i, r := range t.Results {
			v, err := r.Eval()
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return []step{{isExit: true, args: vals, next: Stop{}}}, nil

	case Prefix:
		return expandOffers(t.Gate, t.Offers, nil, t.Cont)

	case Guard:
		c, err := t.Cond.Eval()
		if err != nil {
			return nil, err
		}
		if c.Kind != KindBool {
			return nil, &TypeError{"guard", KindBool, c}
		}
		if c.N == 0 {
			return nil, nil
		}
		return st.steps(t.B, depth+1)

	case Choice:
		sa, err := st.steps(t.A, depth+1)
		if err != nil {
			return nil, err
		}
		sb, err := st.steps(t.B, depth+1)
		if err != nil {
			return nil, err
		}
		return append(sa, sb...), nil

	case Par, Hide, Rename:
		ms, err := st.movesOf(st.intern(b), depth)
		if err != nil {
			return nil, err
		}
		out := make([]step, len(ms))
		for i, m := range ms {
			a := &st.acts[m.act]
			out[i] = step{gate: a.gate, args: a.args, isExit: a.isExit, next: st.ent[m.next].term}
		}
		return out, nil

	case Seq:
		inner, err := st.steps(t.A, depth+1)
		if err != nil {
			return nil, err
		}
		var out []step
		for _, s := range inner {
			if !s.isExit {
				ns := s
				ns.next = Seq{s.next, t.Accept, t.B}
				out = append(out, ns)
				continue
			}
			if len(s.args) != len(t.Accept) {
				return nil, fmt.Errorf("process: exit carries %d values but '>> accept' expects %d", len(s.args), len(t.Accept))
			}
			cont := t.B
			for i, name := range t.Accept {
				cont = cont.subst(name, s.args[i])
			}
			// The delta action becomes internal in the composition.
			out = append(out, step{gate: lts.Tau, next: cont})
		}
		return out, nil

	case Disable:
		sa, err := st.steps(t.A, depth+1)
		if err != nil {
			return nil, err
		}
		sb, err := st.steps(t.B, depth+1)
		if err != nil {
			return nil, err
		}
		var out []step
		for _, s := range sa {
			if s.isExit {
				// Successful termination of A dissolves the disable.
				out = append(out, s)
				continue
			}
			ns := s
			ns.next = Disable{s.next, t.B}
			out = append(out, ns)
		}
		// B may preempt at any time (including immediately).
		out = append(out, sb...)
		return out, nil

	case Let:
		v, err := t.E.Eval()
		if err != nil {
			return nil, err
		}
		return st.steps(t.B.subst(t.Var, v), depth+1)

	case Call:
		def, ok := st.defs[t.Proc]
		if !ok {
			return nil, fmt.Errorf("process: undefined process %q", t.Proc)
		}
		if len(t.Args) != len(def.Params) {
			return nil, fmt.Errorf("process: %s expects %d arguments, got %d", t.Proc, len(def.Params), len(t.Args))
		}
		body := def.Body
		for i, p := range def.Params {
			v, err := t.Args[i].Eval()
			if err != nil {
				return nil, fmt.Errorf("process: argument %d of %s: %w", i, t.Proc, err)
			}
			body = body.subst(p, v)
		}
		return st.steps(body, depth+1)

	default:
		return nil, fmt.Errorf("process: unknown behaviour %T", b)
	}
}

// expandOffers enumerates the communication alternatives of an action
// prefix: emissions are evaluated, acceptances range over their finite
// domains (substituted into the remaining offers and the continuation).
func expandOffers(gate string, offers []Offer, acc []Value, cont Behavior) ([]step, error) {
	if len(offers) == 0 {
		args := append([]Value(nil), acc...)
		return []step{{gate: gate, args: args, next: cont}}, nil
	}
	o := offers[0]
	rest := offers[1:]

	if o.Emit != nil {
		v, err := o.Emit.Eval()
		if err != nil {
			return nil, err
		}
		return expandOffers(gate, rest, append(acc, v), cont)
	}

	var domain []Value
	if o.BoolDomain {
		domain = []Value{BoolVal(false), BoolVal(true)}
	} else {
		if o.Hi < o.Lo {
			return nil, fmt.Errorf("process: empty domain %d..%d for ?%s", o.Lo, o.Hi, o.Var)
		}
		if o.Hi-o.Lo > 4096 {
			return nil, fmt.Errorf("process: domain %d..%d for ?%s too large", o.Lo, o.Hi, o.Var)
		}
		for n := o.Lo; n <= o.Hi; n++ {
			domain = append(domain, IntVal(n))
		}
	}

	var out []step
	for _, v := range domain {
		restSub := make([]Offer, len(rest))
		shadow := false
		for i, r := range rest {
			if shadow {
				restSub[i] = r
				continue
			}
			if r.Emit != nil {
				restSub[i] = Offer{Emit: r.Emit.substExpr(o.Var, v)}
			} else {
				restSub[i] = r
				if r.Var == o.Var {
					shadow = true
				}
			}
		}
		contSub := cont
		if !shadow {
			contSub = cont.subst(o.Var, v)
		}
		ss, err := expandOffers(gate, restSub, append(acc[:len(acc):len(acc)], v), contSub)
		if err != nil {
			return nil, err
		}
		out = append(out, ss...)
	}
	return out, nil
}

func gateIn(gate string, sorted []string) bool {
	for _, g := range sorted {
		if g == gate {
			return true
		}
		if g > gate {
			return false
		}
	}
	return false
}
