package markov

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports the first index where two result vectors differ in
// any bit, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestWorkerCountNeverChangesResult: every analysis returns the same
// bits at Workers 0, 1 and 4, on fixtures that reach each kernel —
// stationary Gauss–Seidel sweeps, GTH blocks (below krylovMinStates
// unknowns), BiCGSTAB blocks, the damped-Jacobi fallbacks, and the
// uniformization product.
func TestWorkerCountNeverChangesResult(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	type analysis struct {
		name  string
		solve func(SolveOptions) ([]float64, error)
	}
	steady := func(c *CTMC) func(SolveOptions) ([]float64, error) { return c.SteadyState }
	fpt := func(c *CTMC) func(SolveOptions) ([]float64, error) {
		return func(o SolveOptions) ([]float64, error) { return c.ExpectedTimeToAbsorption([]int{0}, o) }
	}
	bias := func(c *CTMC) func(SolveOptions) ([]float64, error) {
		reward := make([]float64, c.NumStates())
		for i := range reward {
			reward[i] = rng.Float64()
		}
		pi, err := c.SteadyState(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gain := ExpectedReward(pi, reward)
		return func(o SolveOptions) ([]float64, error) { return c.Bias(reward, gain, o) }
	}
	transient := func(c *CTMC) func(SolveOptions) ([]float64, error) {
		return func(o SolveOptions) ([]float64, error) { return c.Transient(2.5, o) }
	}
	var cases []analysis
	for _, n := range []int{50, 550} {
		c := randIrreducible(rng, n, 2*n, uniformRate(rng))
		cases = append(cases,
			analysis{"steady/random", steady(c)},
			analysis{"fpt/random", fpt(c)},
			analysis{"bias/random", bias(c)},
			analysis{"transient/random", transient(c)})
	}
	cases = append(cases,
		analysis{"steady/reversed-ring", steady(reversedRing(rng, 31))},
		analysis{"steady/multi-bscc", steady(randMultiBSCC(rng, 3, true))},
		analysis{"steady/multi-bscc-mesh", steady(randMultiBSCCMesh(rng, 2*krylovMinStates, 3))})
	big := randIrreducible(rng, 2*krylovMinStates, 2*krylovMinStates, uniformRate(rng))
	capped := func(f func(SolveOptions) ([]float64, error)) func(SolveOptions) ([]float64, error) {
		return func(o SolveOptions) (out []float64, err error) {
			withKrylovCap(func() { out, err = f(o) })
			return out, err
		}
	}
	cases = append(cases,
		analysis{"fpt/krylov-fallback", capped(fpt(big))},
		analysis{"bias/krylov-fallback", capped(bias(big))})

	for _, a := range cases {
		ref, err := a.solve(SolveOptions{})
		if err != nil {
			t.Fatalf("%s workers 0: %v", a.name, err)
		}
		for _, workers := range []int{1, 4} {
			got, err := a.solve(SolveOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers %d: %v", a.name, workers, err)
			}
			if i := sameBits(ref, got); i >= 0 {
				t.Fatalf("%s: workers %d changed state %d: %v vs %v", a.name, workers, i, got[i], ref[i])
			}
		}
	}
}
