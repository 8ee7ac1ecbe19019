package main

import (
	"context"
	"fmt"
	"math/rand"

	"multival"
	"multival/internal/chp"
	"multival/internal/faust"
	"multival/internal/lts"
	"multival/internal/mcl"
	"multival/internal/process"
	"multival/internal/xstream"
)

// The verify workload is the paper's §3 functional verification: the
// xSTream protocol bugs (E1), the FAUST router (E2) and the isochronous
// fork (E3). Per model the flow is generate → mcl checks (deadlock, the
// experiment's property, three seeded queries) → branching minimize →
// compare the quotient with the input.

// property is one expected verdict of a model.
type property struct {
	name    string
	formula string // mcl syntax
	want    bool
}

// vcase is one model of the verify workload.
type vcase struct {
	exp, name string
	gen       func(ctx context.Context, pr multival.ProgressFunc) (*lts.LTS, error)
	// Expected results; states 0 leaves the sizes unchecked.
	states, transitions int
	deadlockFree        bool
	props               []property
	eqSpec              *bool // E3: branching-equivalent to the fork specification
	// draws pick the seeded query labels, as fractions of the sorted
	// visible label list.
	draws [4]float64
}

type verifyInst struct {
	eng   *multival.Engine
	cases []*vcase
}

// vresult is what one pass computed for a case; the checks compare it
// with the expectations after the timed section.
type vresult struct {
	l            *lts.LTS
	deadlockFree bool
	props        []bool
	labels       [4]string // seeded query labels
	answers      [3]bool
	minEquiv     bool
	eqSpec       bool
}

func setupVerify(ctx context.Context, c config) (instance, error) {
	rng := rand.New(rand.NewSource(c.seed))
	v := &verifyInst{eng: multival.NewEngine()}
	add := func(vc *vcase) {
		for i := range vc.draws {
			vc.draws[i] = rng.Float64()
		}
		v.cases = append(v.cases, vc)
	}

	// E1: the injected xSTream protocol bugs.
	e1 := []struct {
		variant                xstream.Variant
		flush                  bool
		deadlockFree, overflow bool
		states                 [2]int
	}{
		{xstream.Correct, true, true, false, [2]int{11, 57}},
		{xstream.CreditLeak, true, false, false, [2]int{16, 99}},
		{xstream.OptimisticPush, false, true, true, [2]int{420, 16695}},
	}
	caps := []int{2, 4}
	if c.toy {
		caps = caps[:1]
	}
	for _, row := range e1 {
		for ci, capacity := range caps {
			cfg := xstream.Config{Capacity: capacity, Values: 2, Variant: row.variant, WithFlush: row.flush}
			add(&vcase{
				exp: "E1", name: fmt.Sprintf("%s-c%d", row.variant, capacity),
				gen: func(context.Context, multival.ProgressFunc) (*lts.LTS, error) {
					return xstream.FunctionalModel(cfg)
				},
				states:       row.states[ci],
				deadlockFree: row.deadlockFree,
				props: []property{{
					name:    "overflow-free",
					formula: mcl.NeverEnabled(mcl.Action("overflow")).String(),
					want:    !row.overflow,
				}},
			})
		}
	}

	// E2: the CHP router, deadlock-free and misroute-free at every size.
	type router struct {
		ports               int
		inputs              []int
		hs                  bool
		states, transitions int
	}
	e2 := []router{
		{2, nil, false, 165, 574},
		{3, nil, false, 6124, 41067},
		{3, []int{0, 1}, false, 964, 4566},
		{3, nil, true, 65329, 392361},
		{4, []int{0, 1}, false, 4753, 28268},
	}
	if c.toy {
		e2 = []router{e2[0], e2[2]}
	}
	for _, r := range e2 {
		procs, err := faust.RouterProcesses(faust.RouterConfig{Ports: r.ports, InputsActive: r.inputs})
		if err != nil {
			return nil, err
		}
		opts := chp.Options{HandshakeExpand: r.hs}
		var bad []mcl.ActionFormula
		for _, lab := range faust.MisroutedLabels(r.ports) {
			bad = append(bad, mcl.Action(lab))
		}
		misroute := bad[0]
		for _, b := range bad[1:] {
			misroute = mcl.OrAction(misroute, b)
		}
		name := fmt.Sprintf("router-p%d-in%d", r.ports, len(procs)-r.ports)
		if r.hs {
			name += "-hs"
		}
		add(&vcase{
			exp: "E2", name: name,
			gen: func(ctx context.Context, pr multival.ProgressFunc) (*lts.LTS, error) {
				sys, err := chp.Translate(procs, opts)
				if err != nil {
					return nil, err
				}
				l, err := sys.GenerateCtx(ctx, process.GenOptions{MaxStates: 2 << 20, Progress: pr})
				if err != nil {
					return nil, err
				}
				// The crossbar wires are internal to the router.
				trimmed, _ := l.Hide(func(label string) bool { return label != "" && label[0] == 'x' }).Trim()
				return trimmed, nil
			},
			states: r.states, transitions: r.transitions,
			deadlockFree: true,
			props: []property{{
				name:    "misroute-free",
				formula: mcl.NeverEnabled(misroute).String(),
				want:    true,
			}},
		})
	}

	// E3: fork implementations against the specification.
	for _, f := range []struct {
		variant faust.ForkVariant
		states  int
		eq      bool
	}{
		{faust.ForkWaitBoth, 29, true},
		{faust.ForkIsochronic, 19, true},
		{faust.ForkUnsafe, 18, false},
	} {
		eq := f.eq
		variant := f.variant
		add(&vcase{
			exp: "E3", name: "fork-" + variant.String(),
			gen: func(context.Context, multival.ProgressFunc) (*lts.LTS, error) {
				return faust.ForkImpl(2, variant)
			},
			states:       f.states,
			deadlockFree: eq,
			eqSpec:       &eq,
		})
	}

	// Warm the code paths on the small models, so the first timed pass
	// does not pay lazy initialization.
	spec, err := faust.ForkSpec(2)
	if err != nil {
		return nil, err
	}
	tr := newTracer(false)
	for _, vc := range v.cases {
		if vc.states < 10000 {
			if _, err := v.flow(ctx, tr, vc, v.eng.FromLTS(spec)); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

func (v *verifyInst) close() {}

func (v *verifyInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var res passResult
	m := startMeter()
	o := tr.begin("E3/spec")
	var spec *multival.Model
	err := o.layer("process", func(multival.ProgressFunc) (counts, error) {
		l, err := faust.ForkSpec(2)
		if err != nil {
			return counts{}, err
		}
		spec = v.eng.FromLTS(l)
		return counts{out: l.NumStates()}, nil
	})
	o.end()
	if err != nil {
		return res, err
	}
	results := make([]*vresult, len(v.cases))
	for i, vc := range v.cases {
		if results[i], err = v.flow(ctx, tr, vc, spec); err != nil {
			return res, fmt.Errorf("%s %s: %w", vc.exp, vc.name, err)
		}
	}
	m.stop(&res)

	// Checks, outside the timed section.
	res.verdict(spec.States() == 9 && spec.Transitions() == 12, "fork spec size %d/%d", spec.States(), spec.Transitions())
	for i, vc := range v.cases {
		r := results[i]
		res.verdict(vc.states == 0 || r.l.NumStates() == vc.states &&
			(vc.transitions == 0 || r.l.NumTransitions() == vc.transitions),
			"%s %s: %d states, %d transitions", vc.exp, vc.name, r.l.NumStates(), r.l.NumTransitions())
		res.verdict(r.deadlockFree == vc.deadlockFree, "%s %s: deadlock-free %v", vc.exp, vc.name, r.deadlockFree)
		for j, p := range vc.props {
			res.verdict(r.props[j] == p.want, "%s %s: %s %v", vc.exp, vc.name, p.name, r.props[j])
		}
		g := graphOf(r.l)
		want := [3]bool{
			g.reachableAction(r.labels[0]),
			g.inevitable(r.labels[1])[g.init],
			g.response(r.labels[2], r.labels[3]),
		}
		for j := range want {
			res.verdict(r.answers[j] == want[j], "%s %s: seeded query %d on %q: mcl %v, oracle %v", vc.exp, vc.name, j, r.labels, r.answers[j], want[j])
		}
		res.verdict(r.minEquiv, "%s %s: quotient not branching-equivalent to its input", vc.exp, vc.name)
		if vc.eqSpec != nil {
			res.verdict(r.eqSpec == *vc.eqSpec, "%s %s: equivalent to spec %v", vc.exp, vc.name, r.eqSpec)
		}
		// Verdicts: deadlock, the experiment's properties, the seeded
		// queries, the quotient's equivalence and, on E3, the spec's.
		res.results += 2 + len(vc.props) + len(want)
		if vc.eqSpec != nil {
			res.results++
		}
	}
	return res, nil
}

// flow runs one model's verification as one traced operation.
func (v *verifyInst) flow(ctx context.Context, tr *tracer, vc *vcase, spec *multival.Model) (*vresult, error) {
	o := tr.begin(vc.exp + "/" + vc.name)
	defer o.end()
	eng := tr.engine(v.eng)
	r := &vresult{}
	var m *multival.Model
	if err := o.layer("process", func(pr multival.ProgressFunc) (counts, error) {
		l, err := vc.gen(ctx, pr)
		if err != nil {
			return counts{}, err
		}
		r.l = l
		m = eng.FromLTS(l)
		return counts{out: l.NumStates()}, nil
	}); err != nil {
		return nil, err
	}
	n := m.States()
	check := func(formula string) (bool, error) {
		var holds bool
		err := o.layer("mcl", func(multival.ProgressFunc) (counts, error) {
			res, err := m.Check(formula)
			holds = res.Holds
			return counts{in: n, out: res.SatCount}, err
		})
		return holds, err
	}
	if err := o.layer("mcl", func(multival.ProgressFunc) (counts, error) {
		res, err := m.CheckDeadlockFree()
		r.deadlockFree = res.Holds
		return counts{in: n, out: res.SatCount}, err
	}); err != nil {
		return nil, err
	}
	for _, p := range vc.props {
		holds, err := check(p.formula)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		r.props = append(r.props, holds)
	}
	labels := visibleLabels(r.l)
	for i, d := range vc.draws {
		r.labels[i] = labels[int(d*float64(len(labels)))]
	}
	queries := [3]string{
		"reachable:" + r.labels[0],
		"inevitable:" + r.labels[1],
		"response:" + r.labels[2] + "->" + r.labels[3],
	}
	for i, q := range queries {
		f, err := mcl.ParseQuery(q)
		if err != nil {
			return nil, err
		}
		if r.answers[i], err = check(f.String()); err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
	}
	var q *multival.Model
	if err := o.layer("bisim", func(multival.ProgressFunc) (counts, error) {
		var err error
		q, err = eng.Minimize(ctx, m, multival.Branching)
		if err != nil {
			return counts{}, err
		}
		return counts{in: n, out: q.States()}, nil
	}); err != nil {
		return nil, err
	}
	if err := o.layer("bisim", func(multival.ProgressFunc) (counts, error) {
		cr, err := eng.Compare(ctx, q, m, multival.Branching)
		r.minEquiv = cr.Equivalent
		return counts{in: q.States() + n}, err
	}); err != nil {
		return nil, err
	}
	if vc.eqSpec != nil {
		if err := o.layer("bisim", func(multival.ProgressFunc) (counts, error) {
			cr, err := eng.Compare(ctx, spec, m, multival.Branching)
			r.eqSpec = cr.Equivalent
			return counts{in: spec.States() + n}, err
		}); err != nil {
			return nil, err
		}
	}
	return r, nil
}
