package markov

// Tests of the solvers' kernel fallbacks and extras: the damped-Jacobi
// kernel (reached through Gauss–Seidel stagnation or a stalled Krylov
// solve) must agree with the dense references and the discrete-event
// simulator, sharding across workers must not change a result, and the
// policy-facing extras (bias, residual reporting, absorb progress) must
// behave.

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"multival/internal/engine"
)

// jacobiOpts shards the row-parallel kernels across four workers.
func jacobiOpts() SolveOptions { return SolveOptions{Workers: 4} }

// randMultiBSCC builds a chain with a transient prefix that branches into
// several BSCC rings, exercising absorption weighting. With reverse set
// the rings run against the state order, so the stationary Gauss–Seidel
// sweep inside each BSCC stagnates and falls back to damped Jacobi.
func randMultiBSCC(rng *rand.Rand, bsccs int, reverse bool) *CTMC {
	const prefix = 6
	ring := 3
	n := prefix + bsccs*ring
	c := NewCTMC(n)
	// Transient chain 0..prefix-1 with random skips.
	for i := 0; i < prefix-1; i++ {
		c.MustAdd(i, i+1, 0.5+rng.Float64()*2, "")
	}
	for b := 0; b < bsccs; b++ {
		base := prefix + b*ring
		// Entry from a random transient state.
		c.MustAdd(rng.Intn(prefix), base, 0.3+rng.Float64()*2, "")
		for k := 0; k < ring; k++ {
			src, dst := base+k, base+(k+1)%ring
			if reverse {
				src, dst = dst, src
			}
			c.MustAdd(src, dst, 0.4+rng.Float64()*3, "")
		}
	}
	// Ensure the last transient state exits (it may only have the chain
	// edge into it): give it an edge into the first BSCC.
	if c.ExitRate(prefix-1) == 0 {
		c.MustAdd(prefix-1, prefix, 1, "")
	}
	return c
}

// reversedRing builds an odd ring oriented against the state order with
// random rates: the stationary Gauss–Seidel sweep oscillates on it, so
// the solve runs the damped-Jacobi fallback.
func reversedRing(rng *rand.Rand, n int) *CTMC {
	c := NewCTMC(n)
	for i := 0; i < n; i++ {
		c.MustAdd((i+1)%n, i, 0.5+2*rng.Float64(), "")
	}
	return c
}

func TestJacobiMatchesGaussSeidelSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var chains []*CTMC
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		chains = append(chains, randIrreducible(rng, n, 2*n, uniformRate(rng)))
	}
	before := Fallbacks().GSToJacobi
	for _, n := range []int{3, 7, 31} {
		chains = append(chains, reversedRing(rng, n))
	}
	for ci, c := range chains {
		ref := denseStationary(t, c)
		pi, err := c.SteadyState(SolveOptions{})
		if err != nil {
			t.Fatalf("chain %d: %v", ci, err)
		}
		for i := range ref {
			almost(t, pi[i], ref[i], 1e-8, "steady state vs dense pi")
		}
	}
	if Fallbacks().GSToJacobi < before+3 {
		t.Fatalf("reversed rings did not fall back to Jacobi: %d -> %d", before, Fallbacks().GSToJacobi)
	}
}

func TestJacobiMatchesGaussSeidelMultiBSCC(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		c := randMultiBSCC(rng, 2+rng.Intn(3), trial%2 == 1)
		ref := denseSteadyState(t, c)
		for _, opts := range []SolveOptions{{}, jacobiOpts()} {
			pi, err := c.SteadyState(opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ref {
				almost(t, pi[i], ref[i], 1e-7, "multi-BSCC pi vs dense")
			}
		}
	}
}

func TestJacobiMatchesSimulator(t *testing.T) {
	c := reversedRing(rand.New(rand.NewSource(98)), 5)
	pi, err := c.SteadyState(jacobiOpts())
	if err != nil {
		t.Fatal(err)
	}
	occ := c.Simulate(rand.New(rand.NewSource(99)), 200000)
	for i := range pi {
		almost(t, occ[i], pi[i], 0.01, "jacobi vs simulated occupancy")
	}
}

func TestJacobiMatchesGaussSeidelAbsorptionTime(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var chains []*CTMC
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(20)
		chains = append(chains, randIrreducible(rng, n, 0, uniformRate(rng)))
	}
	// The small chains are GTH blocks; a block above the Krylov
	// threshold, solved with the Krylov budget capped, makes the
	// damped-Jacobi fallback do the work.
	chains = append(chains, randIrreducible(rng, 150, 150, uniformRate(rng)))
	for ci, c := range chains {
		target := rng.Intn(c.NumStates())
		ref := denseHitting(t, c, []int{target})
		var h []float64
		var err error
		withKrylovCap(func() { h, err = c.ExpectedTimeToAbsorption([]int{target}, jacobiOpts()) })
		if err != nil {
			t.Fatalf("chain %d: %v", ci, err)
		}
		for i := range ref {
			almost(t, h[i], ref[i], 1e-7*(1+ref[i]), "fpt vs dense")
		}
	}
}

func TestJacobiMatchesGaussSeidelTransient(t *testing.T) {
	c := mm1k(2, 2, 8)
	for _, tm := range []float64{0.3, 2, 15} {
		seq, err := c.Transient(tm, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := c.Transient(tm, jacobiOpts())
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("t=%g state %d: workers changed the transient result: %g vs %g", tm, i, par[i], seq[i])
			}
		}
	}
}

func TestAbsorptionReportsProgress(t *testing.T) {
	// Multi-BSCC chain must emit Progress{Stage: "absorb"} like the
	// other solver loops.
	c := NewCTMC(4)
	c.MustAdd(0, 1, 1, "")
	c.MustAdd(0, 2, 3, "")
	c.MustAdd(2, 3, 1, "")
	c.MustAdd(3, 2, 1, "")
	var mu sync.Mutex
	stages := map[string]int{}
	opts := SolveOptions{Progress: func(p engine.Progress) {
		mu.Lock()
		stages[p.Stage]++
		mu.Unlock()
	}}
	if _, err := c.SteadyState(opts); err != nil {
		t.Fatal(err)
	}
	if stages["absorb"] == 0 {
		t.Errorf("no absorb progress reported (stages: %v)", stages)
	}
	if stages["steady"] == 0 {
		t.Errorf("no steady progress reported (stages: %v)", stages)
	}
}

func TestAbsorptionSolvesOneFewerSystem(t *testing.T) {
	// One adjoint solve yields every BSCC weight, and the weights sum
	// to one. The 3-BSCC fan: 0 -> {1}, {2}, {3} with rates 1, 2, 1.
	c := NewCTMC(4)
	c.MustAdd(0, 1, 1, "")
	c.MustAdd(0, 2, 2, "")
	c.MustAdd(0, 3, 1, "")
	pi, err := c.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, pi[1], 0.25, 1e-9, "weight 1")
	almost(t, pi[2], 0.50, 1e-9, "weight 2")
	almost(t, pi[3], 0.25, 1e-9, "weight 3")
	sum := pi[1] + pi[2] + pi[3]
	almost(t, sum, 1, 1e-12, "weights sum")
}

func TestConvergenceErrorCarriesResidual(t *testing.T) {
	// Starved iteration budgets must report the actual last residual,
	// not NaN. The first-passage block (200 states) runs BiCGSTAB,
	// capped into its damped-Jacobi fallback.
	c := mm1k(1.5, 2, 200)
	var err error
	withIterationBudget(2, func() { _, err = c.SteadyState(SolveOptions{}) })
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("expected ConvergenceError, got %v", err)
	}
	if math.IsNaN(ce.Residual) || ce.Residual <= 0 {
		t.Errorf("steady residual = %v, want a positive finite value", ce.Residual)
	}

	withIterationBudget(2, func() {
		withKrylovCap(func() { _, err = c.ExpectedTimeToAbsorption([]int{0}, SolveOptions{}) })
	})
	if !errors.As(err, &ce) {
		t.Fatalf("expected ConvergenceError, got %v", err)
	}
	if math.IsNaN(ce.Residual) || ce.Residual <= 0 {
		t.Errorf("fpt residual = %v, want a positive finite value", ce.Residual)
	}
}

func TestBiasSolvesPoissonEquation(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(15)
		c := NewCTMC(n)
		for i := 0; i < n; i++ {
			c.MustAdd(i, (i+1)%n, 0.3+3*rng.Float64(), "")
		}
		for e := 0; e < n; e++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src != dst {
				c.MustAdd(src, dst, 0.3+3*rng.Float64(), "")
			}
		}
		reward := make([]float64, n)
		for i := range reward {
			reward[i] = rng.Float64() * 2
		}
		pi, err := c.SteadyState(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gain := ExpectedReward(pi, reward)
		for _, opts := range []SolveOptions{{}, jacobiOpts()} {
			h, err := c.Bias(reward, gain, opts)
			if err != nil {
				t.Fatal(err)
			}
			if h[c.Initial()] != 0 {
				t.Errorf("h[initial] = %g, want 0", h[c.Initial()])
			}
			// Verify the fixed point state by state.
			for s := 0; s < n; s++ {
				sum := reward[s] - gain
				c.EachFrom(s, func(tr Transition) {
					sum += tr.Rate * h[tr.Dst]
				})
				almost(t, h[s], sum/c.ExitRate(s), 1e-6*(1+math.Abs(h[s])), "poisson fixed point")
			}
		}
	}
}

func TestFrozenChainSolvesConcurrently(t *testing.T) {
	// After Freeze, one chain may be solved from many goroutines (the
	// race detector enforces the contract under `make race`).
	c := mm1k(1, 2, 20)
	c.Freeze()
	want, err := c.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := SolveOptions{}
			if g%2 == 1 {
				opts = jacobiOpts()
			}
			pi, err := c.SteadyState(opts)
			if err != nil {
				errs[g] = err
				return
			}
			for i := range pi {
				if math.Abs(pi[i]-want[i]) > 1e-8 {
					errs[g] = errors.New("diverging concurrent solve")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
