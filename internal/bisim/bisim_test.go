package bisim

import (
	"math/rand"
	"testing"

	"multival/internal/lts"
)

// build constructs an LTS from a transition list over implicit states.
func build(n int, init lts.State, edges [][3]interface{}) *lts.LTS {
	l := lts.New("test")
	l.AddStates(n)
	for _, e := range edges {
		l.AddTransition(lts.State(e[0].(int)), e[1].(string), lts.State(e[2].(int)))
	}
	l.SetInitial(init)
	return l
}

// abc builds a.(b+c): 0 -a-> 1, 1 -b-> 2, 1 -c-> 3.
func abc() *lts.LTS {
	return build(4, 0, [][3]interface{}{
		{0, "a", 1}, {1, "b", 2}, {1, "c", 3},
	})
}

// abac builds a.b + a.c: 0 -a-> 1, 0 -a-> 2, 1 -b-> 3, 2 -c-> 4.
func abac() *lts.LTS {
	return build(5, 0, [][3]interface{}{
		{0, "a", 1}, {0, "a", 2}, {1, "b", 3}, {2, "c", 4},
	})
}

func TestClassicStrongVsTrace(t *testing.T) {
	p, q := abc(), abac()
	if equivalent(p, q, Strong) {
		t.Error("a.(b+c) and a.b+a.c must NOT be strongly bisimilar")
	}
	if equivalent(p, q, Branching) {
		t.Error("a.(b+c) and a.b+a.c must NOT be branching bisimilar")
	}
	if !equivalent(p, q, Trace) {
		t.Error("a.(b+c) and a.b+a.c must be trace equivalent")
	}
}

func TestStrongMergesDuplicates(t *testing.T) {
	// Two parallel a-branches into identical b-suffixes collapse.
	l := build(5, 0, [][3]interface{}{
		{0, "a", 1}, {0, "a", 2}, {1, "b", 3}, {2, "b", 4},
	})
	q, _ := minimize(l, Strong)
	if q.NumStates() != 3 {
		t.Fatalf("minimized to %d states, want 3\n%s", q.NumStates(), q.Dump())
	}
	if !equivalent(l, q, Strong) {
		t.Fatal("quotient not strongly equivalent to original")
	}
}

func TestBranchingAbstractsInertTau(t *testing.T) {
	// 0 -tau-> 1 -a-> 2 is branching equivalent to 0 -a-> 1.
	p := build(3, 0, [][3]interface{}{{0, lts.Tau, 1}, {1, "a", 2}})
	q := build(2, 0, [][3]interface{}{{0, "a", 1}})
	if !equivalent(p, q, Branching) {
		t.Error("inert tau prefix must be branching-invisible")
	}
	if equivalent(p, q, Strong) {
		t.Error("tau prefix must be visible to strong bisimulation")
	}
	m, _ := minimize(p, Branching)
	if m.NumStates() != 2 {
		t.Fatalf("branching quotient has %d states, want 2\n%s", m.NumStates(), m.Dump())
	}
}

func TestBranchingNonInertTauKept(t *testing.T) {
	// 0 -tau-> 1 where 1 offers b, but 0 also offers a: the tau is NOT
	// inert (it discards the a option), so systems differ.
	p := build(4, 0, [][3]interface{}{
		{0, "a", 2}, {0, lts.Tau, 1}, {1, "b", 3},
	})
	q := build(3, 0, [][3]interface{}{
		{0, "a", 1}, {0, "b", 2},
	})
	if equivalent(p, q, Branching) {
		t.Error("non-inert tau choice must be preserved by branching bisim")
	}
}

func TestDivergencePreservation(t *testing.T) {
	// 0 -a-> 1 with a tau self-loop on 1, versus plain 0 -a-> 1.
	p := build(2, 0, [][3]interface{}{{0, "a", 1}, {1, lts.Tau, 1}})
	q := build(2, 0, [][3]interface{}{{0, "a", 1}})
	if !equivalent(p, q, Branching) {
		t.Error("plain branching bisim ignores divergence")
	}
	if equivalent(p, q, DivBranching) {
		t.Error("divbranching must distinguish divergent state")
	}
	// Divergence marker survives minimization as a tau self-loop.
	m, _ := minimize(p, DivBranching)
	found := false
	m.EachTransition(func(tr lts.Transition) {
		if m.IsTau(tr.Label) && tr.Src == tr.Dst {
			found = true
		}
	})
	if !found {
		t.Errorf("divbranching quotient lost divergence:\n%s", m.Dump())
	}
}

func TestDivBranchingTauCycleAcrossStates(t *testing.T) {
	// A 2-state tau cycle after a: also divergent.
	p := build(3, 0, [][3]interface{}{
		{0, "a", 1}, {1, lts.Tau, 2}, {2, lts.Tau, 1},
	})
	q := build(2, 0, [][3]interface{}{{0, "a", 1}})
	if equivalent(p, q, DivBranching) {
		t.Error("tau cycle must be seen by divbranching")
	}
	if !equivalent(p, q, Branching) {
		t.Error("tau cycle invisible to plain branching")
	}
}

func TestMinimizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, r := range []Relation{Strong, Branching, DivBranching} {
		for i := 0; i < 15; i++ {
			l := lts.Random(rng, lts.RandomConfig{
				States: 20, Labels: 3, Density: 2, TauProb: 0.3, Connect: true,
			})
			m1, _ := minimize(l, r)
			m2, _ := minimize(m1, r)
			if m1.NumStates() != m2.NumStates() || m1.NumTransitions() != m2.NumTransitions() {
				t.Fatalf("%v: minimize not idempotent: %d/%d -> %d/%d", r,
					m1.NumStates(), m1.NumTransitions(), m2.NumStates(), m2.NumTransitions())
			}
		}
	}
}

func TestQuotientEquivalentToOriginal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, r := range []Relation{Strong, Branching, DivBranching} {
		for i := 0; i < 15; i++ {
			l := lts.Random(rng, lts.RandomConfig{
				States: 15, Labels: 3, Density: 2, TauProb: 0.25, Connect: true,
			})
			q, _ := minimize(l, r)
			if !equivalent(l, q, r) {
				t.Fatalf("%v: quotient not equivalent to original (seed %d)", r, i)
			}
		}
	}
}

func TestEquivalentReflexiveSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		a := lts.Random(rng, lts.RandomConfig{States: 10, Labels: 2, Density: 2, TauProb: 0.2, Connect: true})
		b := lts.Random(rng, lts.RandomConfig{States: 10, Labels: 2, Density: 2, TauProb: 0.2, Connect: true})
		for _, r := range []Relation{Strong, Branching, DivBranching, Trace} {
			if !equivalent(a, a, r) {
				t.Fatalf("%v not reflexive", r)
			}
			if equivalent(a, b, r) != equivalent(b, a, r) {
				t.Fatalf("%v not symmetric", r)
			}
		}
	}
}

func TestStrongImpliesBranchingImpliesTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 40; i++ {
		a := lts.Random(rng, lts.RandomConfig{States: 8, Labels: 2, Density: 1.8, TauProb: 0.25, Connect: true})
		b := lts.Random(rng, lts.RandomConfig{States: 8, Labels: 2, Density: 1.8, TauProb: 0.25, Connect: true})
		strong := equivalent(a, b, Strong)
		branching := equivalent(a, b, Branching)
		trace := equivalent(a, b, Trace)
		if strong && !branching {
			t.Fatal("strong equivalence must imply branching equivalence")
		}
		if branching && !trace {
			t.Fatal("branching equivalence must imply trace equivalence")
		}
	}
}

func TestMinimizationOrdering(t *testing.T) {
	// Branching quotients are never larger than strong quotients.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20; i++ {
		l := lts.Random(rng, lts.RandomConfig{States: 25, Labels: 3, Density: 2, TauProb: 0.3, Connect: true})
		s, _ := minimize(l, Strong)
		br, _ := minimize(l, Branching)
		db, _ := minimize(l, DivBranching)
		if br.NumStates() > s.NumStates() {
			t.Fatalf("branching quotient (%d) larger than strong (%d)", br.NumStates(), s.NumStates())
		}
		if db.NumStates() > s.NumStates() {
			t.Fatalf("divbranching quotient (%d) larger than strong (%d)", db.NumStates(), s.NumStates())
		}
		if br.NumStates() > db.NumStates() {
			t.Fatalf("branching quotient (%d) larger than divbranching (%d)", br.NumStates(), db.NumStates())
		}
	}
}

func TestCompareCounterexample(t *testing.T) {
	p := build(2, 0, [][3]interface{}{{0, "a", 1}})
	q := build(2, 0, [][3]interface{}{{0, "b", 1}})
	res := compare(p, q, Trace)
	if res.Equivalent {
		t.Fatal("a and b traces equal?")
	}
	if len(res.Counterexample) != 1 {
		t.Fatalf("counterexample = %v, want single action", res.Counterexample)
	}
	if c := res.Counterexample[0]; c != "a" && c != "b" {
		t.Fatalf("counterexample = %v", res.Counterexample)
	}
}

func TestDistinguishingTraceDeeper(t *testing.T) {
	// Difference only after prefix a.b: p allows a.b.c, q allows a.b.d.
	p := build(4, 0, [][3]interface{}{{0, "a", 1}, {1, "b", 2}, {2, "c", 3}})
	q := build(4, 0, [][3]interface{}{{0, "a", 1}, {1, "b", 2}, {2, "d", 3}})
	tr := DistinguishingTrace(p, q)
	if len(tr) != 3 || tr[0] != "a" || tr[1] != "b" {
		t.Fatalf("distinguishing trace = %v", tr)
	}
	if tr[2] != "c" && tr[2] != "d" {
		t.Fatalf("distinguishing trace = %v", tr)
	}
}

func TestDistinguishingTraceNilWhenEquivalent(t *testing.T) {
	p, q := abc(), abac()
	if tr := DistinguishingTrace(p, q); tr != nil {
		t.Fatalf("trace-equivalent systems produced counterexample %v", tr)
	}
}

func TestPartitionRejectsTrace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("partition(Trace) should panic")
		}
	}()
	partition(abc(), Trace)
}

func TestRelationString(t *testing.T) {
	names := map[Relation]string{
		Strong: "strong", Branching: "branching",
		DivBranching: "divbranching", Trace: "trace", Relation(99): "unknown",
	}
	for r, want := range names {
		if got := r.String(); got != want {
			t.Errorf("Relation(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestTauOnlyCycleMinimization(t *testing.T) {
	// A pure tau cycle is branching-equivalent to a deadlock state
	// (no visible behaviour), but divbranching keeps the divergence.
	cyc := build(2, 0, [][3]interface{}{{0, lts.Tau, 1}, {1, lts.Tau, 0}})
	dead := lts.New("dead")
	dead.AddState()
	if !equivalent(cyc, dead, Branching) {
		t.Error("pure tau cycle should be branching-equivalent to deadlock")
	}
	if equivalent(cyc, dead, DivBranching) {
		t.Error("divbranching must distinguish livelock from deadlock")
	}
}

func TestSimulatesBasics(t *testing.T) {
	// Spec a.(b+c) simulates impl a.b (impl does a subset).
	spec := abc()
	impl := build(3, 0, [][3]interface{}{{0, "a", 1}, {1, "b", 2}})
	if !Simulates(spec, impl) {
		t.Error("a.(b+c) should simulate a.b")
	}
	if Simulates(impl, spec) {
		t.Error("a.b should NOT simulate a.(b+c)")
	}
}

func TestSimulationVsBisimulation(t *testing.T) {
	// a.b + a.c is simulated by a.(b+c) but NOT conversely (after the a,
	// each branch of a.b+a.c offers only one continuation), so the two
	// are not simulation equivalent — the classic spectrum example.
	p, q := abc(), abac()
	if !Simulates(p, q) {
		t.Error("a.(b+c) should simulate a.b+a.c")
	}
	if Simulates(q, p) {
		t.Error("a.b+a.c should NOT simulate a.(b+c)")
	}
	if SimulationEquivalent(p, q) {
		t.Error("not simulation equivalent")
	}
	// Mutual simulation coarser than bisimulation: a genuinely similar-
	// but-not-bisimilar pair: a.(b+b) duplicated branches vs a.b.
	r := build(4, 0, [][3]interface{}{{0, "a", 1}, {1, "b", 2}, {1, "b", 3}})
	s := build(3, 0, [][3]interface{}{{0, "a", 1}, {1, "b", 2}})
	if !SimulationEquivalent(r, s) {
		t.Error("duplicated branches should be simulation equivalent")
	}
}

func TestStrongBisimImpliesMutualSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 25; i++ {
		a := lts.Random(rng, lts.RandomConfig{States: 8, Labels: 2, Density: 1.8, Connect: true})
		b := lts.Random(rng, lts.RandomConfig{States: 8, Labels: 2, Density: 1.8, Connect: true})
		if equivalent(a, b, Strong) && !SimulationEquivalent(a, b) {
			t.Fatal("strong bisimilarity must imply mutual simulation")
		}
		// Reflexivity.
		if !Simulates(a, a) {
			t.Fatal("simulation not reflexive")
		}
	}
}

func TestSimulatesUnknownLabel(t *testing.T) {
	spec := build(2, 0, [][3]interface{}{{0, "a", 1}})
	impl := build(2, 0, [][3]interface{}{{0, "z", 1}})
	if Simulates(spec, impl) {
		t.Error("spec without label z cannot simulate impl doing z")
	}
}

func TestSimulatesEmpty(t *testing.T) {
	empty := lts.New("empty")
	spec := abc()
	if !Simulates(spec, empty) {
		t.Error("anything simulates the empty LTS")
	}
}
