package process

import (
	"context"
	"errors"
	"fmt"

	"multival/internal/engine"
	"multival/internal/lts"
)

// generateReference is the string-keyed generator GenerateCtx replaced,
// kept as the differential oracle: every state is identified by printing
// its whole term, and every global state recomputes the steps of all its
// components. GenerateCtx must produce the identical LTS (states,
// transitions in order, label table) and the identical error.
func generateReference(ctx context.Context, s *System, opts GenOptions) (*lts.LTS, error) {
	if s.Root == nil {
		return nil, fmt.Errorf("process: system %q has no root behaviour", s.Name)
	}
	bound := opts.MaxStates
	if bound == 0 {
		bound = DefaultMaxStates
	}

	l := lts.New(s.Name)
	index := make(map[string]lts.State)
	var terms []Behavior

	intern := func(b Behavior) (lts.State, bool, error) {
		key := b.String()
		if st, ok := index[key]; ok {
			return st, false, nil
		}
		if len(terms) >= bound {
			return 0, false, &ExplosionError{bound}
		}
		st := l.AddState()
		index[key] = st
		terms = append(terms, b)
		return st, true, nil
	}

	if _, _, err := intern(s.Root); err != nil {
		return nil, err
	}
	l.SetInitial(0)

	for qi := 0; qi < len(terms); qi++ {
		if qi%genCheckEvery == 0 {
			if err := engine.Canceled(ctx); err != nil {
				return nil, fmt.Errorf("process: generation canceled at %d states: %w", len(terms), err)
			}
			opts.Progress.Report(engine.Progress{Stage: "generate", States: len(terms)})
		}
		src := lts.State(qi)
		ss, err := refSteps(terms[qi], s.Defs, 0)
		if err != nil {
			return nil, fmt.Errorf("state %d: %w", qi, err)
		}
		for _, st := range ss {
			dst, _, err := intern(st.next)
			if err != nil {
				return nil, err
			}
			l.AddTransition(src, st.label(), dst)
		}
	}
	return l, nil
}

// refSteps is the term-level SOS of the reference generator, with its own
// copies of the parallel, hide and rename rules.
func refSteps(b Behavior, defs map[string]*ProcDef, depth int) ([]step, error) {
	if depth > maxUnfold {
		return nil, fmt.Errorf("process: unguarded recursion (unfold limit %d exceeded) in %.120s", maxUnfold, b.String())
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
		return refSteps(t.B, defs, depth+1)

	case Choice:
		sa, err := refSteps(t.A, defs, depth+1)
		if err != nil {
			return nil, err
		}
		sb, err := refSteps(t.B, defs, depth+1)
		if err != nil {
			return nil, err
		}
		return append(sa, sb...), nil

	case Par:
		return refParSteps(t, defs, depth)

	case Hide:
		inner, err := refSteps(t.B, defs, depth+1)
		if err != nil {
			return nil, err
		}
		out := make([]step, len(inner))
		for i, s := range inner {
			ns := s
			ns.next = Hide{t.Gates, s.next}
			if !s.isExit && gateIn(s.gate, t.Gates) {
				ns.gate = lts.Tau
				ns.args = nil
			}
			out[i] = ns
		}
		return out, nil

	case Rename:
		inner, err := refSteps(t.B, defs, depth+1)
		if err != nil {
			return nil, err
		}
		out := make([]step, len(inner))
		for i, s := range inner {
			ns := s
			ns.next = Rename{t.Map, s.next}
			if !s.isExit && s.gate != lts.Tau {
				if to, ok := t.Map[s.gate]; ok {
					ns.gate = to
				}
			}
			out[i] = ns
		}
		return out, nil

	case Seq:
		inner, err := refSteps(t.A, defs, depth+1)
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
			out = append(out, step{gate: lts.Tau, next: cont})
		}
		return out, nil

	case Disable:
		sa, err := refSteps(t.A, defs, depth+1)
		if err != nil {
			return nil, err
		}
		sb, err := refSteps(t.B, defs, depth+1)
		if err != nil {
			return nil, err
		}
		var out []step
		for _, s := range sa {
			if s.isExit {
				out = append(out, s)
				continue
			}
			ns := s
			ns.next = Disable{s.next, t.B}
			out = append(out, ns)
		}
		out = append(out, sb...)
		return out, nil

	case Let:
		v, err := t.E.Eval()
		if err != nil {
			return nil, err
		}
		return refSteps(t.B.subst(t.Var, v), defs, depth+1)

	case Call:
		def, ok := defs[t.Proc]
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
		return refSteps(body, defs, depth+1)

	default:
		return nil, fmt.Errorf("process: unknown behaviour %T", b)
	}
}

func refParSteps(t Par, defs map[string]*ProcDef, depth int) ([]step, error) {
	sa, err := refSteps(t.A, defs, depth+1)
	if err != nil {
		return nil, err
	}
	sb, err := refSteps(t.B, defs, depth+1)
	if err != nil {
		return nil, err
	}
	var out []step
	for _, s := range sa {
		if s.isExit || (s.gate != lts.Tau && gateIn(s.gate, t.Sync)) {
			continue
		}
		ns := s
		ns.next = Par{t.Sync, s.next, t.B}
		out = append(out, ns)
	}
	for _, s := range sb {
		if s.isExit || (s.gate != lts.Tau && gateIn(s.gate, t.Sync)) {
			continue
		}
		ns := s
		ns.next = Par{t.Sync, t.A, s.next}
		out = append(out, ns)
	}
	for _, x := range sa {
		for _, y := range sb {
			switch {
			case x.isExit && y.isExit:
				if refSameLabel(step{gate: "exit", args: x.args}, step{gate: "exit", args: y.args}) {
					out = append(out, step{isExit: true, args: x.args, next: Par{t.Sync, x.next, y.next}})
				}
			case !x.isExit && !y.isExit && x.gate != lts.Tau && gateIn(x.gate, t.Sync):
				if refSameLabel(x, y) {
					out = append(out, step{gate: x.gate, args: x.args, next: Par{t.Sync, x.next, y.next}})
				}
			}
		}
	}
	return out, nil
}

func refSameLabel(a, b step) bool {
	if a.gate != b.gate || len(a.args) != len(b.args) {
		return false
	}
	for i := range a.args {
		if a.args[i] != b.args[i] {
			return false
		}
	}
	return true
}

// diffGenerated compares a GenerateCtx result against the reference's:
// both errors identical (text and explosion classification), or both
// LTSs identical in name, initial state, state count, label table and
// transition sequence. It returns "" when they agree.
func diffGenerated(got *lts.LTS, gotErr error, want *lts.LTS, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error: got %v, reference %v", gotErr, wantErr)
		}
		var ge, we *ExplosionError
		if errors.As(gotErr, &ge) != errors.As(wantErr, &we) {
			return fmt.Sprintf("explosion classification differs: got %v, reference %v", gotErr, wantErr)
		}
		return ""
	}
	if got.Name() != want.Name() || got.Initial() != want.Initial() {
		return fmt.Sprintf("name/initial: got %q/%d, reference %q/%d", got.Name(), got.Initial(), want.Name(), want.Initial())
	}
	if got.NumStates() != want.NumStates() || got.NumTransitions() != want.NumTransitions() {
		return fmt.Sprintf("size: got %d/%d, reference %d/%d",
			got.NumStates(), got.NumTransitions(), want.NumStates(), want.NumTransitions())
	}
	gl, wl := got.Labels(), want.Labels()
	if len(gl) != len(wl) {
		return fmt.Sprintf("label table: got %q, reference %q", gl, wl)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			return fmt.Sprintf("label %d: got %q, reference %q", i, gl[i], wl[i])
		}
	}
	for i := 0; i < got.NumTransitions(); i++ {
		if g, w := got.Transition(i), want.Transition(i); g != w {
			return fmt.Sprintf("transition %d: got %v, reference %v", i, g, w)
		}
	}
	return ""
}

// checkAgainstReference generates sys with both generators and returns
// the new generator's result, any difference from the reference, and the
// new generator's error.
func checkAgainstReference(sys *System, opts GenOptions) (*lts.LTS, string, error) {
	got, gotErr := sys.GenerateCtx(context.Background(), opts)
	want, wantErr := generateReference(context.Background(), sys, opts)
	return got, diffGenerated(got, gotErr, want, wantErr), gotErr
}
