package imc

import (
	"context"
	"errors"
	"math"
	"testing"

	"multival/internal/lts"
	"multival/internal/markov"
	"multival/internal/phasetype"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g", what, got, want)
	}
}

// workCycle builds the LTS  A --work_s--> B --work_e--> C --done--> A,
// the canonical "expose delay start/end as gates" pattern of the paper.
func workCycle() *lts.LTS {
	l := lts.New("work")
	l.AddStates(3)
	l.AddTransition(0, "work_s", 1)
	l.AddTransition(1, "work_e", 2)
	l.AddTransition(2, "done", 0)
	l.SetInitial(0)
	return l
}

func TestDecorateExpThroughput(t *testing.T) {
	// Work takes Exp(2) (mean 0.5): done fires at rate 2.
	m, err := Decorate(workCycle(), []Delay{
		{Start: "work_s", End: "work_e", Dist: phasetype.Exp(2)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.toCTMC(nil)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := res.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.ThroughputOf(pi, "done"), 2, 1e-9, "done throughput")
}

func TestDecorateErlangThroughputInvariant(t *testing.T) {
	// Erlang-k with mean 0.5 keeps the cycle rate at 2, while the CTMC
	// grows with k (the space side of the space-accuracy trade-off).
	prevStates := 0
	for _, k := range []int{1, 2, 4, 8} {
		dist, err := phasetype.FitFixedDelay(0.5, k)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Decorate(workCycle(), []Delay{{Start: "work_s", End: "work_e", Dist: dist}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.toCTMC(nil)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := res.SteadyState()
		if err != nil {
			t.Fatal(err)
		}
		almost(t, res.ThroughputOf(pi, "done"), 2, 1e-8, "done throughput")
		if res.Chain.NumStates() < prevStates {
			t.Errorf("k=%d: CTMC shrank (%d < %d)", k, res.Chain.NumStates(), prevStates)
		}
		prevStates = res.Chain.NumStates()
	}
	if prevStates < 8 {
		t.Errorf("Erlang-8 CTMC has only %d states", prevStates)
	}
}

func TestDelayProcessRejectsProbabilisticEntry(t *testing.T) {
	hyper, err := phasetype.HyperExp([]float64{0.5, 0.5}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DelayProcess(Delay{Start: "s", End: "e", Dist: hyper}); err == nil {
		t.Fatal("hyperexponential entry accepted")
	}
}

func TestDecorateRatesMM1K(t *testing.T) {
	// Queue 0..K with arrive/serve labels turned into rates: occupancy
	// matches the analytic M/M/1/K distribution.
	K := 5
	lambda, mu := 1.0, 2.0
	l := lts.New("queue")
	l.AddStates(K + 1)
	for i := 0; i < K; i++ {
		l.AddTransition(lts.State(i), "arrive", lts.State(i+1))
		l.AddTransition(lts.State(i+1), "serve", lts.State(i))
	}
	m, err := DecorateRates(l, map[string]float64{"arrive": lambda, "serve": mu})
	if err != nil {
		t.Fatal(err)
	}
	if m.Inter.NumTransitions() != 0 {
		t.Fatal("all transitions should be Markovian now")
	}
	res, err := m.toCTMC(nil)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := res.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	norm := 0.0
	for i := 0; i <= K; i++ {
		norm += math.Pow(rho, float64(i))
	}
	for i := 0; i <= K; i++ {
		almost(t, pi[i], math.Pow(rho, float64(i))/norm, 1e-8, "occupancy")
	}
}

func TestComposeInterleavesRates(t *testing.T) {
	clock := func(rate float64) *IMC {
		m := New("clock")
		a := m.AddState()
		b := m.AddState()
		m.MustAddRate(a, b, rate)
		m.MustAddRate(b, a, rate)
		m.Inter.SetInitial(a)
		return m
	}
	c, err := Compose(clock(1), clock(2), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates() != 4 || len(c.Markov) != 8 {
		t.Fatalf("composed clocks: %d states, %d rates", c.NumStates(), len(c.Markov))
	}
}

func TestComposeSyncGate(t *testing.T) {
	// a: rate 3 then gate g; b: waits on g then emits done.
	a := New("a")
	a0, a1, a2 := a.AddState(), a.AddState(), a.AddState()
	a.MustAddRate(a0, a1, 3)
	a.AddInteractive(a1, "g", a2)
	b := New("b")
	b0, b1 := b.AddState(), b.AddState()
	b.AddInteractive(b0, "g", b1)
	b.AddInteractive(b1, "done", b0)

	c, err := Compose(a, b, []string{"g"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Inter.LookupLabel("g") < 0 || c.Inter.LookupLabel("done") < 0 {
		t.Fatalf("labels missing after composition")
	}
	// g must not fire before the delay: initial state has only the rate.
	if c.HasInteractive(c.Initial()) {
		t.Fatal("g fired before its delay")
	}
}

func TestMaximalProgress(t *testing.T) {
	m := New("mp")
	s0, s1, s2 := m.AddState(), m.AddState(), m.AddState()
	m.AddInteractive(s0, lts.Tau, s1)
	m.MustAddRate(s0, s2, 5) // preempted by tau
	m.MustAddRate(s1, s2, 1) // kept
	mp := m.MaximalProgress()
	if len(mp.Markov) != 1 || mp.Markov[0].Src != s1 {
		t.Fatalf("maximal progress kept %v", mp.Markov)
	}
	// Visible actions do not preempt delays.
	m2 := New("mp2")
	u0, u1, u2 := m2.AddState(), m2.AddState(), m2.AddState()
	m2.AddInteractive(u0, "visible", u1)
	m2.MustAddRate(u0, u2, 5)
	if got := len(m2.MaximalProgress().Markov); got != 1 {
		t.Fatalf("visible action preempted delay: %d rates left", got)
	}
}

func TestNondeterminismRejectedWithoutScheduler(t *testing.T) {
	m := nondetModel()
	_, err := m.toCTMC(nil)
	var nd *NondeterminismError
	if !errors.As(err, &nd) {
		t.Fatalf("expected NondeterminismError, got %v", err)
	}
	if nd.Alternatives != 2 {
		t.Fatalf("alternatives = %d", nd.Alternatives)
	}
}

// nondetModel: tangible T --rate 1--> V; V -tau-> Fa -fast-> T and
// V -tau-> Fb -slow-> T.
func nondetModel() *IMC {
	m := New("nd")
	T := m.AddState()
	V := m.AddState()
	Fa := m.AddState()
	Fb := m.AddState()
	m.MustAddRate(T, V, 1)
	m.AddInteractive(V, lts.Tau, Fa)
	m.AddInteractive(V, lts.Tau, Fb)
	m.AddInteractive(Fa, "fast", T)
	m.AddInteractive(Fb, "slow", T)
	m.Inter.SetInitial(T)
	return m
}

func TestUniformSchedulerResolves(t *testing.T) {
	m := nondetModel()
	res, err := m.toCTMC(UniformScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := res.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.ThroughputOf(pi, "fast"), 0.5, 1e-9, "fast throughput")
	almost(t, res.ThroughputOf(pi, "slow"), 0.5, 1e-9, "slow throughput")
}

func TestThroughputBounds(t *testing.T) {
	m := nondetModel()
	min, max, err := m.ThroughputBounds("fast", markov.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, min, 0, 1e-9, "min fast")
	almost(t, max, 1, 1e-9, "max fast")
}

func TestThroughputBoundsEnum(t *testing.T) {
	m := nondetModel()
	min, max, err := m.ThroughputBoundsEnum(context.Background(), "fast", 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, min, 0, 1e-9, "min fast")
	almost(t, max, 1, 1e-9, "max fast")
}

func TestZenoDetected(t *testing.T) {
	m := New("zeno")
	a := m.AddState()
	x := m.AddState()
	y := m.AddState()
	m.MustAddRate(a, x, 1)
	m.AddInteractive(x, lts.Tau, y)
	m.AddInteractive(y, lts.Tau, x)
	m.Inter.SetInitial(a)
	_, err := m.toCTMC(UniformScheduler{})
	var z *ZenoError
	if !errors.As(err, &z) {
		t.Fatalf("expected ZenoError, got %v", err)
	}
}

func TestLumpMergesSymmetricBranches(t *testing.T) {
	// Two rate-equal branches with identical continuations lump.
	m := New("sym")
	s := m.AddState()
	b1 := m.AddState()
	b2 := m.AddState()
	end := m.AddState()
	m.MustAddRate(s, b1, 1)
	m.MustAddRate(s, b2, 1)
	m.AddInteractive(b1, "go", end)
	m.AddInteractive(b2, "go", end)
	m.Inter.SetInitial(s)
	q, _ := m.lump()
	if q.NumStates() != 3 {
		t.Fatalf("lumped to %d states, want 3", q.NumStates())
	}
	// The two rates into the merged block must aggregate to 2.
	total := 0.0
	q.EachRateFrom(q.Initial(), func(tr MTransition) { total += tr.Rate })
	almost(t, total, 2, 1e-12, "aggregated rate")
}

func TestLumpPreservesMeasures(t *testing.T) {
	// Lumping must not change steady-state throughput.
	dist, err := phasetype.FitFixedDelay(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decorate(workCycle(), []Delay{{Start: "work_s", End: "work_e", Dist: dist}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := m.lump()
	if q.NumStates() > m.NumStates() {
		t.Fatal("lumping grew the state space")
	}
	for _, mm := range []*IMC{m, q} {
		res, err := mm.toCTMC(nil)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := res.SteadyState()
		if err != nil {
			t.Fatal(err)
		}
		almost(t, res.ThroughputOf(pi, "done"), 2, 1e-8, "done throughput after lump")
	}
}

func TestLumpIdempotent(t *testing.T) {
	m := nondetModel()
	q1, _ := m.lump()
	q2, _ := q1.lump()
	if q1.NumStates() != q2.NumStates() || len(q1.Markov) != len(q2.Markov) {
		t.Fatal("lump not idempotent")
	}
}

func TestTrimRemovesUnreachable(t *testing.T) {
	m := New("trim")
	a := m.AddState()
	b := m.AddState()
	c := m.AddState() // unreachable
	m.MustAddRate(a, b, 1)
	m.MustAddRate(c, b, 1)
	m.Inter.SetInitial(a)
	tr := m.Trim()
	if tr.NumStates() != 2 || len(tr.Markov) != 1 {
		t.Fatalf("trim: %d states, %d rates", tr.NumStates(), len(tr.Markov))
	}
}

func TestReplaceLabelByRateValidation(t *testing.T) {
	m := FromLTS(workCycle())
	if _, err := m.ReplaceLabelByRate("done", -1); err == nil {
		t.Fatal("negative rate accepted")
	}
	out, err := m.ReplaceLabelByRate("done", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Markov) != 1 || out.Inter.LookupLabel("done") >= 0 &&
		len(out.Inter.Successors(2, out.Inter.LookupLabel("done"))) > 0 {
		t.Fatalf("done not replaced: %v", out)
	}
}

func TestAddRateValidation(t *testing.T) {
	m := New("v")
	m.AddState()
	if err := m.AddRate(0, 5, 1); err == nil {
		t.Error("out of range accepted")
	}
	if err := m.AddRate(0, 0, math.NaN()); err == nil {
		t.Error("NaN rate accepted")
	}
}

func TestHideGates(t *testing.T) {
	m := New("h")
	a, b := m.AddState(), m.AddState()
	m.AddInteractive(a, "secret !1", b)
	m.AddInteractive(a, "public", b)
	h := m.Hide("secret")
	if h.Inter.LookupLabel("secret !1") >= 0 {
		t.Fatal("gate not hidden")
	}
	if h.Inter.LookupLabel("public") < 0 {
		t.Fatal("public label lost")
	}
}

func TestInitialDistribution(t *testing.T) {
	// Initial state vanishing with a deterministic tau into a tangible
	// state: InitialDist concentrates there.
	m := New("init")
	v := m.AddState()
	tg := m.AddState()
	m.AddInteractive(v, lts.Tau, tg)
	m.MustAddRate(tg, tg, 1) // self loop dropped later; add real move
	tg2 := m.AddState()
	m.MustAddRate(tg, tg2, 1)
	m.MustAddRate(tg2, tg, 1)
	m.Inter.SetInitial(v)
	res, err := m.toCTMC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InitialDist) != 1 {
		t.Fatalf("InitialDist = %v", res.InitialDist)
	}
	if res.IndexOf[v] != -1 {
		t.Fatal("vanishing state kept in CTMC")
	}
}

func TestCTMCAgainstHandBuilt(t *testing.T) {
	// The ToCTMC of a purely Markovian IMC equals the hand-built chain.
	m := New("pure")
	for i := 0; i < 3; i++ {
		m.AddState()
	}
	m.MustAddRate(0, 1, 2)
	m.MustAddRate(1, 2, 3)
	m.MustAddRate(2, 0, 4)
	res, err := m.toCTMC(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := markov.NewCTMC(3)
	want.MustAdd(0, 1, 2, "")
	want.MustAdd(1, 2, 3, "")
	want.MustAdd(2, 0, 4, "")
	piGot, err := res.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	piWant, err := want.SteadyState(markov.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range piWant {
		almost(t, piGot[i], piWant[i], 1e-10, "pi")
	}
}

func TestCompressTau(t *testing.T) {
	// s0 ~~1~~> v -tau-> s1 ~~2~~> s0: the deterministic tau vanishes.
	m := New("ct")
	s0, v, s1 := m.AddState(), m.AddState(), m.AddState()
	m.MustAddRate(s0, v, 1)
	m.AddInteractive(v, lts.Tau, s1)
	m.MustAddRate(s1, s0, 2)
	m.Inter.SetInitial(s0)
	c := m.CompressTau()
	if c.NumStates() != 2 {
		t.Fatalf("CompressTau left %d states, want 2", c.NumStates())
	}
	if c.Inter.NumTransitions() != 0 {
		t.Fatalf("CompressTau left interactive transitions")
	}
	// Measures preserved.
	for _, mm := range []*IMC{m, c} {
		res, err := mm.toCTMC(nil)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := res.SteadyState()
		if err != nil {
			t.Fatal(err)
		}
		// pi over the two tangible states: 2/3 and 1/3.
		want := []float64{2.0 / 3, 1.0 / 3}
		for i := range pi {
			almost(t, pi[i], want[i], 1e-9, "pi after compress")
		}
	}
}

func TestCompressTauKeepsChoices(t *testing.T) {
	// A state with two taus is a real (scheduler) choice: kept.
	m := nondetModel()
	c := m.CompressTau()
	nd := 0
	for s := 0; s < c.NumStates(); s++ {
		if c.Inter.OutDegree(lts.State(s)) > 1 {
			nd++
		}
	}
	if nd == 0 {
		t.Fatal("CompressTau destroyed the nondeterministic choice")
	}
}

func TestCompressTauCycleSafe(t *testing.T) {
	// A pure tau cycle is left for ToCTMC to reject as Zeno.
	m := New("cyc")
	a, x, y := m.AddState(), m.AddState(), m.AddState()
	m.MustAddRate(a, x, 1)
	m.AddInteractive(x, lts.Tau, y)
	m.AddInteractive(y, lts.Tau, x)
	m.Inter.SetInitial(a)
	c := m.CompressTau()
	if _, err := c.toCTMC(nil); err == nil {
		t.Fatal("tau cycle should still be rejected after compression")
	}
}

func TestMinimizeShrinks(t *testing.T) {
	// Compose two stages, hide the handoff: Minimize must shrink.
	a := New("a")
	a0, a1 := a.AddState(), a.AddState()
	a.MustAddRate(a0, a1, 1)
	a.AddInteractive(a1, "h", a0)
	a.Inter.SetInitial(a0)
	b := New("b")
	b0, b1 := b.AddState(), b.AddState()
	b.AddInteractive(b0, "h", b1)
	b.MustAddRate(b1, b0, 2)
	b.Inter.SetInitial(b0)
	comp, err := Compose(a, b, []string{"h"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hidden := comp.Hide("h")
	min := hidden.minimize()
	if min.NumStates() >= hidden.NumStates() {
		t.Fatalf("Minimize did not shrink: %d -> %d", hidden.NumStates(), min.NumStates())
	}
}

func TestTransientConvergesToSteady(t *testing.T) {
	// A small queue starting empty: transient -> steady as t grows.
	l := lts.New("q")
	l.AddStates(4)
	for i := 0; i < 3; i++ {
		l.AddTransition(lts.State(i), "up", lts.State(i+1))
		l.AddTransition(lts.State(i+1), "down", lts.State(i))
	}
	l.SetInitial(0)
	m, err := DecorateRates(l, map[string]float64{"up": 1, "down": 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.toCTMC(nil)
	if err != nil {
		t.Fatal(err)
	}
	at0, err := res.transient(0)
	if err != nil {
		t.Fatal(err)
	}
	if at0[0] != 1 {
		t.Fatalf("at t=0 the chain must be in the initial state: %v", at0)
	}
	steady, err := res.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	late, err := res.transient(100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range steady {
		almost(t, late[i], steady[i], 1e-6, "transient convergence")
	}
	// Monotone filling: P(empty) decreases over time from 1.
	prev := 1.0
	for _, tm := range []float64{0.2, 0.5, 1, 2, 5} {
		pi, err := res.transient(tm)
		if err != nil {
			t.Fatal(err)
		}
		if pi[0] >= prev {
			t.Fatalf("P(empty) did not decrease at t=%g: %g >= %g", tm, pi[0], prev)
		}
		prev = pi[0]
	}
}

func TestTransientWithVanishingInitial(t *testing.T) {
	// Initial state resolves through a tau: InitialDist drives Transient.
	m := New("vt")
	v := m.AddState()
	a := m.AddState()
	b := m.AddState()
	m.AddInteractive(v, lts.Tau, a)
	m.MustAddRate(a, b, 1)
	m.MustAddRate(b, a, 1)
	m.Inter.SetInitial(v)
	res, err := m.toCTMC(nil)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := res.transient(0)
	if err != nil {
		t.Fatal(err)
	}
	if pi[res.IndexOf[a]] != 1 {
		t.Fatalf("t=0 distribution = %v", pi)
	}
	// The chain's configured initial state is untouched by Transient.
	before := res.Chain.Initial()
	if _, err := res.transient(3); err != nil {
		t.Fatal(err)
	}
	if res.Chain.Initial() != before {
		t.Fatal("Transient changed the chain's initial state")
	}
}
