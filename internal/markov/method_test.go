package markov

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gaussSolve solves the dense system given as an augmented n×(n+1)
// matrix by Gaussian elimination with partial pivoting: the enumerative
// reference every iterative kernel is checked against.
func gaussSolve(t *testing.T, a [][]float64) []float64 {
	t.Helper()
	n := len(a)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if a[col][col] == 0 {
			t.Fatal("singular dense system")
		}
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for k := col; k <= n; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := a[r][n]
		for k := r + 1; k < n; k++ {
			sum -= a[r][k] * x[k]
		}
		x[r] = sum / a[r][r]
	}
	return x
}

// augmented allocates a zero n×(n+1) system.
func augmented(n int) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	return a
}

// denseStationary solves the stationary distribution by Gaussian
// elimination on the full balance system (last equation replaced by the
// normalization). Only valid for irreducible chains.
func denseStationary(t *testing.T, c *CTMC) []float64 {
	t.Helper()
	n := c.NumStates()
	a := augmented(n)
	// Equation j: sum_i pi_i rate(i->j) - pi_j exit_j = 0.
	c.EachTransition(func(tr Transition) {
		a[tr.Dst][tr.Src] += tr.Rate
	})
	for j := 0; j < n; j++ {
		a[j][j] -= c.ExitRate(j)
	}
	for i := 0; i < n; i++ {
		a[n-1][i] = 1
	}
	a[n-1][n] = 1
	return gaussSolve(t, a)
}

// denseHitting solves the expected time to reach the targets from every
// state by Gaussian elimination: exit_s h_s − Σ rate(s→d) h_d = 1 off
// the targets, h = 0 on them.
func denseHitting(t *testing.T, c *CTMC, targets []int) []float64 {
	t.Helper()
	n := c.NumStates()
	isTarget := make([]bool, n)
	for _, s := range targets {
		isTarget[s] = true
	}
	a := augmented(n)
	for s := 0; s < n; s++ {
		if isTarget[s] {
			a[s][s] = 1
			continue
		}
		a[s][s] = c.ExitRate(s)
		a[s][n] = 1
	}
	c.EachTransition(func(tr Transition) {
		if !isTarget[tr.Src] {
			a[tr.Src][tr.Dst] -= tr.Rate
		}
	})
	return gaussSolve(t, a)
}

// denseSteadyState is the limiting distribution of a chain with any
// number of BSCCs: each BSCC's dense local stationary distribution,
// weighted by the dense absorption probability into it from the initial
// state.
func denseSteadyState(t *testing.T, c *CTMC) []float64 {
	t.Helper()
	n := c.NumStates()
	bsccs := c.bsccs()
	inB := make([]int, n)
	local := make([]int, n)
	for s := range inB {
		inB[s] = -1
	}
	for bi, members := range bsccs {
		for i, s := range members {
			inB[s], local[s] = bi, i
		}
	}
	pi := make([]float64, n)
	for bi, members := range bsccs {
		a := augmented(n)
		for s := 0; s < n; s++ {
			switch {
			case inB[s] == bi:
				a[s][s], a[s][n] = 1, 1
			case inB[s] >= 0:
				a[s][s] = 1
			default:
				a[s][s] = c.ExitRate(s)
			}
		}
		sub := NewCTMC(len(members))
		c.EachTransition(func(tr Transition) {
			if inB[tr.Src] < 0 {
				a[tr.Src][tr.Dst] -= tr.Rate
			}
			if inB[tr.Src] == bi {
				sub.MustAdd(local[tr.Src], local[tr.Dst], tr.Rate, "")
			}
		})
		w := gaussSolve(t, a)[c.Initial()]
		lp := []float64{1}
		if len(members) > 1 {
			lp = denseStationary(t, sub)
		}
		for i, s := range members {
			pi[s] = w * lp[i]
		}
	}
	return pi
}

func maxDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// randIrreducible builds an n-state ring with chords random chords,
// rates drawn from rate.
func randIrreducible(rng *rand.Rand, n, chords int, rate func() float64) *CTMC {
	c := NewCTMC(n)
	for i := 0; i < n; i++ {
		c.MustAdd(i, (i+1)%n, rate(), "")
	}
	for e := 0; e < chords; e++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src != dst {
			c.MustAdd(src, dst, rate(), "")
		}
	}
	return c
}

// uniformRate draws rates from [0.2, 4.2).
func uniformRate(rng *rand.Rand) func() float64 {
	return func() float64 { return 0.2 + 4*rng.Float64() }
}

// withKrylovCap runs f with BiCGSTAB capped at one iteration, so every
// Krylov attempt stalls into the damped-Jacobi fallback.
func withKrylovCap(f func()) {
	krylovIterCap = 1
	defer func() { krylovIterCap = 0 }()
	f()
}

// withIterationBudget runs f with every sweep loop capped at n
// iterations, so a solve that needs more returns a ConvergenceError.
func withIterationBudget(n int, f func()) {
	iterationBudget = n
	defer func() { iterationBudget = maxIterations }()
	f()
}

// TestQuickMethodsAgreeOnStationary: the stationary sweep agrees with
// the dense Gaussian-elimination reference on random irreducible CTMCs,
// sequential and sharded.
func TestQuickMethodsAgreeOnStationary(t *testing.T) {
	prop := func(r randChain) bool {
		ref := denseStationary(t, r.C)
		for _, workers := range []int{0, 4} {
			pi, err := r.C.SteadyState(SolveOptions{Workers: workers})
			if err != nil {
				t.Logf("workers %d: %v", workers, err)
				return false
			}
			if d := maxDiff(pi, ref); d > 1e-8 {
				t.Logf("workers %d diverges from dense reference by %g", workers, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}

// TestMethodsAgreeOnStiffChains spreads rates across six orders of
// magnitude; the stationary sweeps and the first-passage times must
// still match the dense references. Pivoted elimination itself loses
// digits to cancellation on these systems (2.9e-9 relative on trial 4,
// whose times reach 2.2e8), so the bound is relative 1e-7; the exact
// oracle in exact_test.go holds the GTH kernel to 1e-12.
func TestMethodsAgreeOnStiffChains(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	stiff := func() float64 { return math.Pow(10, 3-6*rng.Float64()) }
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(40)
		c := randIrreducible(rng, n, n, stiff)
		ref := denseStationary(t, c)
		pi, err := c.SteadyState(SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range ref {
			if d := math.Abs(pi[i] - ref[i]); d > 1e-7*(1+ref[i]) {
				t.Fatalf("trial %d state %d: pi %g vs dense %g", trial, i, pi[i], ref[i])
			}
		}
		want := denseHitting(t, c, []int{0})
		h, err := c.ExpectedTimeToAbsorption([]int{0}, SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d (n=%d) first passage: %v", trial, n, err)
		}
		for i := range want {
			if d := math.Abs(h[i] - want[i]); d > 1e-7*(1+want[i]) {
				t.Fatalf("trial %d (n=%d) state %d: first passage %g vs dense %g", trial, n, i, h[i], want[i])
			}
		}
	}
}

// randMultiBSCCMesh builds a strongly connected transient mesh of the
// given size (ring plus chords) in which every eighth state also exits
// into one of several three-state BSCC rings: the adjoint absorption
// system is one block large enough for BiCGSTAB.
func randMultiBSCCMesh(rng *rand.Rand, transient, bsccs int) *CTMC {
	const ring = 3
	c := NewCTMC(transient + bsccs*ring)
	for i := 0; i < transient; i++ {
		c.MustAdd(i, (i+1)%transient, 0.5+2*rng.Float64(), "")
		if j := rng.Intn(transient); j != i {
			c.MustAdd(i, j, 0.2+rng.Float64(), "")
		}
		if i%8 == 0 {
			c.MustAdd(i, transient+rng.Intn(bsccs*ring), 0.3+rng.Float64(), "")
		}
	}
	for b := 0; b < bsccs; b++ {
		base := transient + b*ring
		for k := 0; k < ring; k++ {
			c.MustAdd(base+k, base+(k+1)%ring, 0.4+3*rng.Float64(), "")
		}
	}
	return c
}

// TestMethodsAgreeOnMultiBSCCAbsorption compares the block-structured
// absorption path — GTH on small blocks, BiCGSTAB on the large mesh, and the damped-Jacobi fallback of a stalled Krylov solve,
// sequential and sharded — against the dense reference.
func TestMethodsAgreeOnMultiBSCCAbsorption(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	var chains []*CTMC
	for trial := 0; trial < 12; trial++ {
		chains = append(chains, randMultiBSCC(rng, 2+rng.Intn(4), false))
	}
	for trial := 0; trial < 3; trial++ {
		chains = append(chains, randMultiBSCCMesh(rng, 2*krylovMinStates, 2+rng.Intn(4)))
	}
	check := func(what string, ci int, c *CTMC, ref []float64) {
		for _, workers := range []int{0, 4} {
			pi, err := c.SteadyState(SolveOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s chain %d workers %d: %v", what, ci, workers, err)
			}
			if d := maxDiff(pi, ref); d > 1e-8 {
				t.Fatalf("%s chain %d workers %d: diff %g from dense reference", what, ci, workers, d)
			}
		}
	}
	for ci, c := range chains {
		ref := denseSteadyState(t, c)
		check("default", ci, c, ref)
		withKrylovCap(func() { check("krylov-capped", ci, c, ref) })
	}
}

// TestHittingBlocksMatchLegacy compares the SCC-block first-passage
// solver against the dense reference on a birth-death chain, on random
// irreducible chains, and on one chain whose block is large enough for
// BiCGSTAB (also with the Krylov budget capped into the fallback).
func TestHittingBlocksMatchLegacy(t *testing.T) {
	chains := []*CTMC{mm1k(1.5, 2, 60)}
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(30)
		chains = append(chains, randIrreducible(rng, n, n, uniformRate(rng)))
	}
	chains = append(chains, randIrreducible(rng, 300, 300, uniformRate(rng)))
	check := func(what string, ci int, c *CTMC, ref []float64) {
		for _, workers := range []int{0, 4} {
			h, err := c.ExpectedTimeToAbsorption([]int{0}, SolveOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s chain %d workers %d: %v", what, ci, workers, err)
			}
			for s := range h {
				if d := math.Abs(h[s] - ref[s]); d > 1e-7*(1+ref[s]) {
					t.Fatalf("%s chain %d workers %d state %d: %g vs dense %g", what, ci, workers, s, h[s], ref[s])
				}
			}
		}
	}
	for ci, c := range chains {
		ref := denseHitting(t, c, []int{0})
		check("default", ci, c, ref)
		withKrylovCap(func() { check("krylov-capped", ci, c, ref) })
	}
}

// TestBiasKrylovMatchesSweeps: the deflated Poisson solve by BiCGSTAB
// must agree with the damped-Jacobi sweeps it falls back to (reached by
// capping the Krylov budget) up to tolerance.
func TestBiasKrylovMatchesSweeps(t *testing.T) {
	c := mm1k(1.5, 2, 2*krylovMinStates)
	rng := rand.New(rand.NewSource(94))
	n := c.NumStates()
	reward := make([]float64, n)
	for i := range reward {
		reward[i] = rng.Float64() * 3
	}
	gain := ExpectedReward(denseStationary(t, c), reward)
	var ref []float64
	var err error
	before := Fallbacks().BiCGSTABToJacobi
	withKrylovCap(func() { ref, err = c.Bias(reward, gain, SolveOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	if Fallbacks().BiCGSTABToJacobi == before {
		t.Fatal("capped bias solve did not fall back to the sweeps")
	}
	h, err := c.Bias(reward, gain, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scale := 1.0
	for _, v := range ref {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for s := range h {
		if d := math.Abs(h[s] - ref[s]); d > 1e-6*scale {
			t.Fatalf("state %d: bias %g vs sweep reference %g", s, h[s], ref[s])
		}
	}
}

// TestKrylovFallbackForcedAndCounted caps the Krylov budget at one
// iteration so every BiCGSTAB attempt stalls: the first-passage solve
// must still produce the right times through the damped-Jacobi
// fallback, and the process-wide fallback counter must tick.
func TestKrylovFallbackForcedAndCounted(t *testing.T) {
	c := mm1k(1.5, 2, 200)
	want := denseHitting(t, c, []int{0})
	before := Fallbacks().BiCGSTABToJacobi
	var h []float64
	var err error
	withKrylovCap(func() { h, err = c.ExpectedTimeToAbsorption([]int{0}, SolveOptions{}) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range h {
		almost(t, h[i], want[i], 1e-7*(1+want[i]), "fallback fpt")
	}
	if after := Fallbacks().BiCGSTABToJacobi; after <= before {
		t.Fatalf("fallback counter did not advance: %d -> %d", before, after)
	}
}

// TestConvergenceErrorRecordsMethodAndFallback: the error must name the
// kernel that ran and any fallback taken before the budget ran out. The
// first-passage block has 200 states, so it runs BiCGSTAB; capped at one
// Krylov iteration it falls back to damped Jacobi.
func TestConvergenceErrorRecordsMethodAndFallback(t *testing.T) {
	c := mm1k(1.5, 2, 200)
	var err error
	withIterationBudget(2, func() { _, err = c.SteadyState(SolveOptions{}) })
	var ce *ConvergenceError
	if !errors.As(err, &ce) || ce.Method != "gs" || ce.Fallback != "" {
		t.Fatalf("steady error = %v (%+v)", err, ce)
	}

	withIterationBudget(3, func() {
		withKrylovCap(func() {
			_, err = c.ExpectedTimeToAbsorption([]int{0}, SolveOptions{})
		})
	})
	if !errors.As(err, &ce) || ce.Method != "bicgstab" || ce.Fallback != "jacobi" {
		t.Fatalf("fpt error = %v (%+v)", err, ce)
	}
}

// TestParallelBiCGSTABMatchesSequential drives the Krylov path with
// Workers > 1 (the race job covers this test under -race) and checks
// the result is bit-identical to the sequential Krylov solve — the
// matvec is a per-row gather and all reductions are sequential.
func TestParallelBiCGSTABMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	c := randIrreducible(rng, 3000, 6000, uniformRate(rng))
	seq, err := c.ExpectedTimeToAbsorption([]int{0}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.ExpectedTimeToAbsorption([]int{0}, SolveOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("worker count changed the Krylov result at state %d: %g vs %g", i, seq[i], par[i])
		}
	}
}
