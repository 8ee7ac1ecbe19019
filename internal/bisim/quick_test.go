package bisim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"multival/internal/aut"
	"multival/internal/lts"
)

type randLTS struct{ L *lts.LTS }

func (randLTS) Generate(rng *rand.Rand, size int) reflect.Value {
	if size > 20 {
		size = 20
	}
	l := lts.Random(rng, lts.RandomConfig{
		States:  2 + rng.Intn(size+2),
		Labels:  1 + rng.Intn(3),
		Density: 0.8 + rng.Float64()*2,
		TauProb: rng.Float64() * 0.4,
		Connect: true,
	})
	return reflect.ValueOf(randLTS{l})
}

func cfg() *quick.Config {
	return &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(42))}
}

func TestQuickQuotientEquivalent(t *testing.T) {
	for _, rel := range []Relation{Strong, Branching, DivBranching} {
		rel := rel
		prop := func(r randLTS) bool {
			q, _ := minimize(r.L, rel)
			return equivalent(r.L, q, rel)
		}
		if err := quick.Check(prop, cfg()); err != nil {
			t.Errorf("%v: %v", rel, err)
		}
	}
}

func TestQuickMinimizeIdempotent(t *testing.T) {
	for _, rel := range []Relation{Strong, Branching, DivBranching} {
		rel := rel
		prop := func(r randLTS) bool {
			q1, _ := minimize(r.L, rel)
			q2, _ := minimize(q1, rel)
			return q1.NumStates() == q2.NumStates() &&
				q1.NumTransitions() == q2.NumTransitions()
		}
		if err := quick.Check(prop, cfg()); err != nil {
			t.Errorf("%v: %v", rel, err)
		}
	}
}

func TestQuickRelationInclusions(t *testing.T) {
	// Strong ⟹ DivBranching ⟹ Branching ⟹ Trace, on pairs.
	prop := func(a, b randLTS) bool {
		if equivalent(a.L, b.L, Strong) && !equivalent(a.L, b.L, DivBranching) {
			return false
		}
		if equivalent(a.L, b.L, DivBranching) && !equivalent(a.L, b.L, Branching) {
			return false
		}
		trimA, _ := a.L.Trim()
		trimB, _ := b.L.Trim()
		if trimA.NumStates() > 10 || trimB.NumStates() > 10 {
			return true // keep trace (determinization) cheap
		}
		if equivalent(a.L, b.L, Branching) && !equivalent(a.L, b.L, Trace) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickQuotientOrdering(t *testing.T) {
	// Coarser relations yield smaller (or equal) quotients.
	prop := func(r randLTS) bool {
		s, _ := minimize(r.L, Strong)
		db, _ := minimize(r.L, DivBranching)
		br, _ := minimize(r.L, Branching)
		return br.NumStates() <= db.NumStates() && db.NumStates() <= s.NumStates()
	}
	if err := quick.Check(prop, cfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickPartitionIsEquivalenceInvariant(t *testing.T) {
	// Two states in the same block of the strong partition must remain
	// in the same block after minimizing (block of block).
	prop := func(r randLTS) bool {
		block := partition(r.L, Strong)
		q, mapping := minimize(r.L, Strong)
		_ = q
		for s := 0; s < r.L.NumStates(); s++ {
			for u := s + 1; u < r.L.NumStates(); u++ {
				if (block[s] == block[u]) != (mapping[s] == mapping[u]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickAutRoundtripPreservesEquivalence(t *testing.T) {
	// Serialization must not change behaviour (full-stack property).
	prop := func(r randLTS) bool {
		got, err := aut.ReadString(aut.WriteString(r.L))
		if err != nil {
			return false
		}
		return equivalent(r.L, got, Strong)
	}
	if err := quick.Check(prop, cfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickDistinguishingTraceIsValid(t *testing.T) {
	// When a distinguishing trace exists, it must indeed be accepted by
	// exactly one of the two systems.
	accepts := func(l *lts.LTS, trace []string) bool {
		cur := map[lts.State]bool{}
		for _, s := range l.TauClosure(l.Initial()) {
			cur[s] = true
		}
		for _, lab := range trace {
			id := l.LookupLabel(lab)
			next := map[lts.State]bool{}
			if id >= 0 {
				for s := range cur {
					for _, d := range l.Successors(s, id) {
						for _, c := range l.TauClosure(d) {
							next[c] = true
						}
					}
				}
			}
			if len(next) == 0 {
				return false
			}
			cur = next
		}
		return true
	}
	prop := func(a, b randLTS) bool {
		trimA, _ := a.L.Trim()
		trimB, _ := b.L.Trim()
		if trimA.NumStates() > 8 || trimB.NumStates() > 8 {
			return true
		}
		tr := DistinguishingTrace(a.L, b.L)
		if tr == nil {
			return true
		}
		return accepts(a.L, tr) != accepts(b.L, tr)
	}
	if err := quick.Check(prop, cfg()); err != nil {
		t.Error(err)
	}
}
