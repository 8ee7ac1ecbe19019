package markov

import (
	"math"
	"math/rand"
	"testing"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (tol %g)", what, got, want, tol)
	}
}

// Simulate runs a discrete-event simulation of the chain for the given
// total time and returns the empirical fraction of time spent in each
// state: the independent check the numerical solvers are
// cross-validated against.
func (c *CTMC) Simulate(rng *rand.Rand, horizon float64) []float64 {
	occ := make([]float64, c.numStates)
	s := c.initial
	now := 0.0
	for now < horizon {
		exit := c.exitRate[s]
		if exit == 0 {
			occ[s] += horizon - now
			break
		}
		dwell := rng.ExpFloat64() / exit
		if now+dwell > horizon {
			occ[s] += horizon - now
			break
		}
		occ[s] += dwell
		now += dwell
		// Pick the next transition proportionally to its rate.
		u := rng.Float64() * exit
		acc := 0.0
		next := s
		c.EachFrom(s, func(t Transition) {
			if acc <= u && u < acc+t.Rate {
				next = t.Dst
			}
			acc += t.Rate
		})
		s = next
	}
	for i := range occ {
		occ[i] /= horizon
	}
	return occ
}

// ExpectedReward returns the steady-state expectation of a state reward
// vector.
func ExpectedReward(pi, reward []float64) float64 {
	total := 0.0
	for i, p := range pi {
		total += p * reward[i]
	}
	return total
}

// mm1k builds an M/M/1/K queue as a birth-death CTMC.
func mm1k(lambda, mu float64, k int) *CTMC {
	c := NewCTMC(k + 1)
	for i := 0; i < k; i++ {
		c.MustAdd(i, i+1, lambda, "arrive")
		c.MustAdd(i+1, i, mu, "serve")
	}
	return c
}

// mm1kAnalytic returns the analytic stationary distribution.
func mm1kAnalytic(lambda, mu float64, k int) []float64 {
	rho := lambda / mu
	pi := make([]float64, k+1)
	total := 0.0
	for i := 0; i <= k; i++ {
		pi[i] = math.Pow(rho, float64(i))
		total += pi[i]
	}
	for i := range pi {
		pi[i] /= total
	}
	return pi
}

func TestTwoStateSteadyState(t *testing.T) {
	// 0 -(a)-> 1, 1 -(b)-> 0: pi = (b, a)/(a+b).
	c := NewCTMC(2)
	c.MustAdd(0, 1, 3, "")
	c.MustAdd(1, 0, 1, "")
	pi, err := c.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, pi[0], 0.25, 1e-9, "pi[0]")
	almost(t, pi[1], 0.75, 1e-9, "pi[1]")
}

func TestMM1KMatchesAnalytic(t *testing.T) {
	for _, cfg := range []struct {
		lambda, mu float64
		k          int
	}{
		{1, 2, 5}, {2, 2, 8}, {3, 2, 4}, {0.5, 4, 10},
	} {
		c := mm1k(cfg.lambda, cfg.mu, cfg.k)
		pi, err := c.SteadyState(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := mm1kAnalytic(cfg.lambda, cfg.mu, cfg.k)
		for i := range want {
			almost(t, pi[i], want[i], 1e-8, "pi")
		}
		// Throughput of "serve" equals effective arrival rate
		// lambda*(1-pi[K]).
		thr := c.Throughput(pi, func(l string) bool { return l == "serve" })
		almost(t, thr, cfg.lambda*(1-pi[cfg.k]), 1e-8, "serve throughput")
	}
}

func TestSteadyStateSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		c := NewCTMC(n)
		// Ring plus random chords keeps the chain irreducible.
		for i := 0; i < n; i++ {
			c.MustAdd(i, (i+1)%n, 0.5+rng.Float64()*4, "")
		}
		for e := 0; e < n; e++ {
			c.MustAdd(rng.Intn(n), rng.Intn(n), 0.5+rng.Float64()*4, "")
		}
		pi, err := c.SteadyState(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range pi {
			sum += p
		}
		almost(t, sum, 1, 1e-9, "sum pi")
		// Global balance at every state.
		for j := 0; j < n; j++ {
			in := 0.0
			c.EachTransition(func(tr Transition) {
				if tr.Dst == j {
					in += pi[tr.Src] * tr.Rate
				}
			})
			almost(t, pi[j]*c.ExitRate(j), in, 1e-7, "balance")
		}
	}
}

func TestMultipleBSCCs(t *testing.T) {
	// 0 splits to absorbing BSCC {1} (rate 1) and BSCC {2,3} (rate 3).
	c := NewCTMC(4)
	c.MustAdd(0, 1, 1, "")
	c.MustAdd(0, 2, 3, "")
	c.MustAdd(2, 3, 1, "")
	c.MustAdd(3, 2, 1, "")
	pi, err := c.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, pi[0], 0, 1e-12, "transient state")
	almost(t, pi[1], 0.25, 1e-9, "absorbing state")
	almost(t, pi[2], 0.375, 1e-9, "pi[2]")
	almost(t, pi[3], 0.375, 1e-9, "pi[3]")
}

func TestTransientTwoState(t *testing.T) {
	// Known closed form for a 2-state chain with rates a (0->1), b (1->0):
	// p01(t) = a/(a+b) * (1 - exp(-(a+b)t)).
	a, b := 2.0, 1.0
	c := NewCTMC(2)
	c.MustAdd(0, 1, a, "")
	c.MustAdd(1, 0, b, "")
	for _, tm := range []float64{0, 0.1, 0.5, 1, 3, 10} {
		pi, err := c.Transient(tm, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := a / (a + b) * (1 - math.Exp(-(a+b)*tm))
		almost(t, pi[1], want, 1e-9, "p01")
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	c := mm1k(1, 2, 5)
	pi, err := c.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := c.Transient(200, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		almost(t, pt[i], pi[i], 1e-6, "transient->steady")
	}
}

func TestTransientLargeQ(t *testing.T) {
	// Large uniformization constant exercises the windowed Poisson path.
	c := NewCTMC(2)
	c.MustAdd(0, 1, 500, "")
	c.MustAdd(1, 0, 500, "")
	pi, err := c.Transient(5, SolveOptions{}) // q = 500*1.02*5 = 2550
	if err != nil {
		t.Fatal(err)
	}
	almost(t, pi[0], 0.5, 1e-6, "pi[0] at large q")
}

func TestAbsorptionTimeErlang(t *testing.T) {
	// A chain of k exponential phases rate r: expected absorption k/r.
	k, r := 5, 2.0
	c := NewCTMC(k + 1)
	for i := 0; i < k; i++ {
		c.MustAdd(i, i+1, r, "")
	}
	h, err := c.ExpectedTimeToAbsorption([]int{k}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, h[0], float64(k)/r, 1e-9, "Erlang mean")
	almost(t, h[k], 0, 0, "target state")
}

func TestAbsorptionTimeWithBranching(t *testing.T) {
	// 0 -> 1 (rate 1) or 0 -> 2 (rate 1); 1 -> 2 rate 2.
	// h2=0, h1=1/2, h0 = 1/2 + (1/2)h1 + (1/2)h2 = 1/2+1/4 = 0.75.
	c := NewCTMC(3)
	c.MustAdd(0, 1, 1, "")
	c.MustAdd(0, 2, 1, "")
	c.MustAdd(1, 2, 2, "")
	h, err := c.ExpectedTimeToAbsorption([]int{2}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, h[0], 0.75, 1e-9, "h0")
}

func TestAbsorptionUnreachableError(t *testing.T) {
	c := NewCTMC(3)
	c.MustAdd(0, 1, 1, "")
	// State 2 is a target but 0,1 cannot reach it; 1 is absorbing.
	if _, err := c.ExpectedTimeToAbsorption([]int{2}, SolveOptions{}); err == nil {
		t.Fatal("unreachable target accepted")
	}
}

func TestSimulationAgreesWithSteadyState(t *testing.T) {
	c := mm1k(1.5, 2, 4)
	pi, err := c.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	occ := c.Simulate(rand.New(rand.NewSource(99)), 200000)
	for i := range pi {
		almost(t, occ[i], pi[i], 0.01, "simulated occupancy")
	}
}

func TestAddValidation(t *testing.T) {
	c := NewCTMC(2)
	if err := c.Add(0, 5, 1, ""); err == nil {
		t.Error("out of range accepted")
	}
	if err := c.Add(0, 1, -1, ""); err == nil {
		t.Error("negative rate accepted")
	}
	if err := c.Add(0, 1, 0, ""); err == nil {
		t.Error("zero rate accepted")
	}
	if err := c.Add(0, 1, math.Inf(1), ""); err == nil {
		t.Error("infinite rate accepted")
	}
	if err := c.Add(0, 0, 1, ""); err != nil {
		t.Error("self loop should be silently dropped, not an error")
	}
	if c.NumTransitions() != 0 {
		t.Error("self loop stored")
	}
}

func TestEmptyChainErrors(t *testing.T) {
	c := NewCTMC(0)
	if _, err := c.SteadyState(SolveOptions{}); err == nil {
		t.Error("empty chain steady state accepted")
	}
	if _, err := c.Transient(1, SolveOptions{}); err == nil {
		t.Error("empty chain transient accepted")
	}
}

func TestAbsorbingChainSteadyState(t *testing.T) {
	// Chain that surely ends in the absorbing state 1.
	c := NewCTMC(2)
	c.MustAdd(0, 1, 1, "")
	pi, err := c.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, pi[0], 0, 1e-12, "transient")
	almost(t, pi[1], 1, 1e-12, "absorbing")
}

func TestExpectedReward(t *testing.T) {
	pi := []float64{0.25, 0.75}
	rew := []float64{0, 4}
	almost(t, ExpectedReward(pi, rew), 3, 1e-12, "reward")
}

func TestTransientInvalidTime(t *testing.T) {
	c := NewCTMC(1)
	if _, err := c.Transient(-1, SolveOptions{}); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := c.Transient(math.NaN(), SolveOptions{}); err == nil {
		t.Error("NaN time accepted")
	}
}

func TestLittlesLawOnMM1K(t *testing.T) {
	// L = lambda_eff * W: mean queue length equals effective arrival
	// rate times mean sojourn (cross-check between steady state and
	// absorption-time machinery is indirect; here verify L from pi).
	lambda, mu, k := 1.0, 2.0, 6
	c := mm1k(lambda, mu, k)
	pi, err := c.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	L := 0.0
	for i, p := range pi {
		L += float64(i) * p
	}
	lambdaEff := lambda * (1 - pi[k])
	// W from M/M/1/K closed form: W = L / lambda_eff; sanity: positive
	// and finite, L < k.
	if L <= 0 || L >= float64(k) {
		t.Fatalf("L = %g out of range", L)
	}
	W := L / lambdaEff
	if W <= 0.5 { // must exceed service time 1/mu = 0.5
		t.Fatalf("W = %g should exceed 1/mu", W)
	}
}
