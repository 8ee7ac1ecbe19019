package mcl

import (
	"context"
	"fmt"

	"multival/internal/lts"
)

// This file keeps the first evaluator of the package as the differential
// oracle of the compiled one: a direct recursive reading of the
// semantics that recomputes each fixpoint body from scratch on every
// iteration and matches every action formula against every label on
// every pass. It is slow but obviously right.

var bg = context.Background()

func (s StateSet) equal(t StateSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// refSat is the reference Sat.
func refSat(l *lts.LTS, f Formula) (StateSet, error) {
	if err := refWellFormed(f, map[string]bool{}, true); err != nil {
		return nil, err
	}
	return refEval(l, f, map[string]StateSet{}), nil
}

// refVerify is the reference Verify.
func refVerify(l *lts.LTS, f Formula) (Result, error) {
	set, err := refSat(l, f)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Formula:   f.String(),
		Holds:     l.NumStates() > 0 && set[l.Initial()],
		SatCount:  set.Count(),
		NumStates: l.NumStates(),
	}
	if res.Holds {
		if w, ok := refWitness(l, f); ok {
			res.Witness = w
		}
	}
	return res, nil
}

func refWellFormed(f Formula, bound map[string]bool, positive bool) error {
	switch g := f.(type) {
	case fTrue, fFalse:
		return nil
	case fNot:
		return refWellFormed(g.f, bound, !positive)
	case fAnd:
		if err := refWellFormed(g.a, bound, positive); err != nil {
			return err
		}
		return refWellFormed(g.b, bound, positive)
	case fOr:
		if err := refWellFormed(g.a, bound, positive); err != nil {
			return err
		}
		return refWellFormed(g.b, bound, positive)
	case fDia:
		return refWellFormed(g.f, bound, positive)
	case fBox:
		return refWellFormed(g.f, bound, positive)
	case fVar:
		binderParity, ok := bound[g.name]
		if !ok {
			return fmt.Errorf("mcl: free variable %s", g.name)
		}
		if positive != binderParity {
			return fmt.Errorf("mcl: variable %s occurs negatively (relative to its binder)", g.name)
		}
		return nil
	case fMu:
		return refWellFormedFixpoint(g.name, g.body, bound, positive)
	case fNu:
		return refWellFormedFixpoint(g.name, g.body, bound, positive)
	default:
		return fmt.Errorf("mcl: unknown formula %T", f)
	}
}

func refWellFormedFixpoint(name string, body Formula, bound map[string]bool, positive bool) error {
	prev, had := bound[name]
	bound[name] = positive
	err := refWellFormed(body, bound, positive)
	if had {
		bound[name] = prev
	} else {
		delete(bound, name)
	}
	return err
}

func refEval(l *lts.LTS, f Formula, env map[string]StateSet) StateSet {
	n := l.NumStates()
	switch g := f.(type) {
	case fTrue:
		set := make(StateSet, n)
		fill(set, true)
		return set
	case fFalse:
		return make(StateSet, n)
	case fNot:
		sub := refEval(l, g.f, env)
		out := make(StateSet, n)
		for i := range out {
			out[i] = !sub[i]
		}
		return out
	case fAnd:
		a, b := refEval(l, g.a, env), refEval(l, g.b, env)
		out := make(StateSet, n)
		for i := range out {
			out[i] = a[i] && b[i]
		}
		return out
	case fOr:
		a, b := refEval(l, g.a, env), refEval(l, g.b, env)
		out := make(StateSet, n)
		for i := range out {
			out[i] = a[i] || b[i]
		}
		return out
	case fDia:
		sub := refEval(l, g.f, env)
		out := make(StateSet, n)
		l.EachTransition(func(t lts.Transition) {
			if !out[t.Src] && sub[t.Dst] && g.act.Matches(l.LabelName(t.Label)) {
				out[t.Src] = true
			}
		})
		return out
	case fBox:
		sub := refEval(l, g.f, env)
		out := make(StateSet, n)
		fill(out, true)
		l.EachTransition(func(t lts.Transition) {
			if out[t.Src] && !sub[t.Dst] && g.act.Matches(l.LabelName(t.Label)) {
				out[t.Src] = false
			}
		})
		return out
	case fVar:
		return env[g.name]
	case fMu:
		return refFixpoint(l, g.name, g.body, env, make(StateSet, n))
	case fNu:
		top := make(StateSet, n)
		fill(top, true)
		return refFixpoint(l, g.name, g.body, env, top)
	default:
		panic(fmt.Sprintf("mcl: unknown formula %T", f))
	}
}

func refFixpoint(l *lts.LTS, name string, body Formula, env map[string]StateSet, cur StateSet) StateSet {
	saved, had := env[name]
	defer func() {
		if had {
			env[name] = saved
		} else {
			delete(env, name)
		}
	}()
	for {
		env[name] = cur
		next := refEval(l, body, env)
		if next.equal(cur) {
			return next
		}
		cur = next
	}
}

// refWitness is the reference reachability witness: the target set is
// evaluated on its own.
func refWitness(l *lts.LTS, f Formula) ([]string, bool) {
	mu, ok := f.(fMu)
	if !ok {
		return nil, false
	}
	or, ok := mu.body.(fOr)
	if !ok {
		return nil, false
	}
	dia, ok := or.b.(fDia)
	if !ok {
		return nil, false
	}
	v, ok := dia.f.(fVar)
	if !ok || v.name != mu.name {
		return nil, false
	}
	if _, isAny := dia.act.(afAny); !isAny {
		return nil, false
	}
	if refContainsVar(or.a, mu.name) {
		return nil, false
	}
	targetSet, err := refSat(l, or.a)
	if err != nil {
		return nil, false
	}
	var finalAct ActionFormula
	if d, ok := or.a.(fDia); ok {
		if _, isTrue := d.f.(fTrue); isTrue {
			finalAct = d.act
		}
	}
	n := l.NumStates()
	if n == 0 {
		return nil, false
	}
	prevState := make([]lts.State, n)
	prevLabel := make([]int, n)
	seen := make([]bool, n)
	seen[l.Initial()] = true
	prevState[l.Initial()] = -1
	queue := []lts.State{l.Initial()}
	var goal lts.State = -1
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		if targetSet[s] {
			goal = s
			break
		}
		l.EachOutgoing(s, func(t lts.Transition) {
			if !seen[t.Dst] {
				seen[t.Dst] = true
				prevState[t.Dst] = s
				prevLabel[t.Dst] = t.Label
				queue = append(queue, t.Dst)
			}
		})
	}
	if goal < 0 {
		return nil, false
	}
	var trace []string
	for s := goal; prevState[s] != -1; s = prevState[s] {
		trace = append([]string{l.LabelName(prevLabel[s])}, trace...)
	}
	if finalAct != nil {
		for _, t := range l.Outgoing(goal) {
			if finalAct.Matches(l.LabelName(t.Label)) {
				trace = append(trace, l.LabelName(t.Label))
				break
			}
		}
	}
	return trace, true
}

func refContainsVar(f Formula, name string) bool {
	switch g := f.(type) {
	case fVar:
		return g.name == name
	case fNot:
		return refContainsVar(g.f, name)
	case fAnd:
		return refContainsVar(g.a, name) || refContainsVar(g.b, name)
	case fOr:
		return refContainsVar(g.a, name) || refContainsVar(g.b, name)
	case fDia:
		return refContainsVar(g.f, name)
	case fBox:
		return refContainsVar(g.f, name)
	case fMu:
		return g.name != name && refContainsVar(g.body, name)
	case fNu:
		return g.name != name && refContainsVar(g.body, name)
	default:
		return false
	}
}
