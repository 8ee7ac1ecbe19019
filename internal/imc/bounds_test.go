package imc

// Differential tests of the policy-iteration throughput bounds against
// the exhaustive scheduler enumeration, on every small nondeterministic
// fixture plus randomized ND models; and scale tests on models the
// odometer enumeration rejects outright.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"multival/internal/lts"
	"multival/internal/markov"
)

// ndServer is the E7 fast/slow server fixture.
func ndServer() *IMC {
	m := New("nd-server")
	idle := m.AddState()
	choice := m.AddState()
	fast := m.AddState()
	slow := m.AddState()
	fdone := m.AddState()
	sdone := m.AddState()
	m.MustAddRate(idle, choice, 1)
	m.AddInteractive(choice, lts.Tau, fast)
	m.AddInteractive(choice, lts.Tau, slow)
	m.MustAddRate(fast, fdone, 4)
	m.MustAddRate(slow, sdone, 0.5)
	m.AddInteractive(fdone, "served", idle)
	m.AddInteractive(sdone, "served", idle)
	m.Inter.SetInitial(idle)
	return m
}

// ndRing builds a tangible ring of n states where each ring edge passes
// through a nondeterministic vanishing state offering `arity` routes that
// differ in onward rate and in whether they cross the "work" label.
// Every deterministic policy keeps the chain irreducible (each route
// re-enters the ring at the next tangible state).
func ndRing(rng *rand.Rand, n, arity int) *IMC {
	m := New("nd-ring")
	ring := make([]lts.State, n)
	for i := range ring {
		ring[i] = m.AddState()
	}
	for i := range ring {
		next := ring[(i+1)%n]
		v := m.AddState()
		m.MustAddRate(ring[i], v, 0.5+2*rng.Float64())
		for a := 0; a < arity; a++ {
			label := "work"
			if rng.Intn(2) == 0 {
				label = lts.Tau
			}
			if a == 0 {
				// Direct continuation.
				m.AddInteractive(v, label, next)
				continue
			}
			// Detour through an extra tangible state with its own rate.
			mid := m.AddState()
			m.AddInteractive(v, label, mid)
			m.MustAddRate(mid, next, 0.3+3*rng.Float64())
		}
	}
	m.Inter.SetInitial(ring[0])
	return m
}

func boundsAgree(t *testing.T, m *IMC, label string, what string) {
	t.Helper()
	lo, hi, err := m.ThroughputBounds(label, markov.SolveOptions{})
	if err != nil {
		t.Fatalf("%s: policy bounds: %v", what, err)
	}
	elo, ehi, err := m.ThroughputBoundsEnum(context.Background(), label, 1<<20)
	if err != nil {
		t.Fatalf("%s: enumeration: %v", what, err)
	}
	if math.Abs(lo-elo) > 1e-6*(1+elo) {
		t.Errorf("%s: min %g, enumeration %g", what, lo, elo)
	}
	if math.Abs(hi-ehi) > 1e-6*(1+ehi) {
		t.Errorf("%s: max %g, enumeration %g", what, hi, ehi)
	}
}

func TestPolicyBoundsMatchEnumerationFixtures(t *testing.T) {
	boundsAgree(t, nondetModel(), "fast", "nondetModel/fast")
	boundsAgree(t, nondetModel(), "slow", "nondetModel/slow")
	boundsAgree(t, ndServer(), "served", "ndServer/served")
}

func TestPolicyBoundsMatchEnumerationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20080311))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(4)
		arity := 2 + rng.Intn(2)
		m := ndRing(rng, n, arity)
		boundsAgree(t, m, "work", fmt.Sprintf("ndRing[%d states, arity %d, trial %d]", n, arity, trial))
	}
}

func TestPolicyBoundsDeterministicModel(t *testing.T) {
	// Without nondeterminism both bounds collapse onto the single
	// scheduler's throughput.
	m := New("det")
	a := m.AddState()
	v := m.AddState()
	b := m.AddState()
	m.MustAddRate(a, v, 2)
	m.AddInteractive(v, "tick", b)
	m.MustAddRate(b, a, 3)
	m.Inter.SetInitial(a)
	lo, hi, err := m.ThroughputBounds("tick", markov.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lo != hi {
		t.Errorf("deterministic model: bounds [%g, %g] should coincide", lo, hi)
	}
	res, err := m.toCTMC(nil)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := res.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	want := res.ThroughputOf(pi, "tick")
	almost(t, lo, want, 1e-9, "deterministic bound")
}

func TestPolicyBoundsLargeModelEnumerationRejects(t *testing.T) {
	// 24 nondeterministic states: 2^24 combinations — the odometer must
	// reject at the default maxCombos while policy iteration solves it.
	rng := rand.New(rand.NewSource(7))
	m := ndRing(rng, 24, 2)
	if _, _, err := m.ThroughputBoundsEnum(context.Background(), "work", 0); err == nil {
		t.Fatal("enumeration accepted 2^24 combinations")
	} else if !strings.Contains(err.Error(), "exceed limit") {
		t.Fatalf("unexpected enumeration error: %v", err)
	}
	lo, hi, err := m.ThroughputBounds("work", markov.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !(lo <= hi) || lo < 0 || math.IsNaN(lo) || math.IsNaN(hi) {
		t.Fatalf("degenerate bounds [%g, %g]", lo, hi)
	}
	// A randomized memoryless scheduler's throughput must fall inside
	// the deterministic extremes (deterministic policies attain the
	// extrema over all stationary schedulers on unichain models).
	res, err := m.toCTMC(UniformScheduler{})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := res.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	uni := res.ThroughputOf(pi, "work")
	if uni < lo-1e-6 || uni > hi+1e-6 {
		t.Errorf("uniform scheduler throughput %g outside policy bounds [%g, %g]", uni, lo, hi)
	}
}

func TestPolicyBoundsZenoModelErrors(t *testing.T) {
	// Every policy of this model takes an instantaneous cycle: bounds
	// must surface the Zeno error rather than loop.
	m := New("zeno-nd")
	a := m.AddState()
	x := m.AddState()
	y := m.AddState()
	m.MustAddRate(a, x, 1)
	m.AddInteractive(x, lts.Tau, y)
	m.AddInteractive(x, lts.Tau, y) // nondeterministic, both Zeno
	m.AddInteractive(y, lts.Tau, x)
	m.Inter.SetInitial(a)
	if _, _, err := m.ThroughputBounds("tick", markov.SolveOptions{}); err == nil {
		t.Fatal("Zeno model accepted")
	}
}

func TestPolicyBoundsWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := ndRing(rng, 10, 3)
	lo1, hi1, err := m.ThroughputBounds("work", markov.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lo4, hi4, err := m.ThroughputBounds("work", markov.SolveOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, lo4, lo1, 1e-8*(1+lo1), "parallel min bound")
	almost(t, hi4, hi1, 1e-8*(1+hi1), "parallel max bound")
}
