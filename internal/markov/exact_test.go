package markov

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ratSolve solves the square system a·X = B exactly by Gauss–Jordan
// elimination over the rationals, given the augmented n×(n+m) matrix
// [a | B], and returns X (row i, column k). Nothing is rounded, so it is
// the independent oracle the floating-point kernels are held to.
func ratSolve(t *testing.T, a [][]*big.Rat) [][]*big.Rat {
	t.Helper()
	n := len(a)
	m := len(a[0]) - n
	tmp := new(big.Rat)
	for col := 0; col < n; col++ {
		piv := col
		for piv < n && a[piv][col].Sign() == 0 {
			piv++
		}
		if piv == n {
			t.Fatal("singular exact system")
		}
		a[col], a[piv] = a[piv], a[col]
		inv := new(big.Rat).Inv(a[col][col])
		for r := 0; r < n; r++ {
			if r == col || a[r][col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Mul(a[r][col], inv)
			for k := col; k < n+m; k++ {
				if a[col][k].Sign() != 0 {
					a[r][k].Sub(a[r][k], tmp.Mul(f, a[col][k]))
				}
			}
		}
	}
	x := make([][]*big.Rat, n)
	for r := range x {
		x[r] = make([]*big.Rat, m)
		for k := range x[r] {
			x[r][k] = new(big.Rat).Quo(a[r][n+k], a[r][r])
		}
	}
	return x
}

// float rounds an exact rational to the nearest float64.
func float(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}

// ratMatrix allocates a zero n×cols rational matrix.
func ratMatrix(n, cols int) [][]*big.Rat {
	a := make([][]*big.Rat, n)
	for i := range a {
		a[i] = make([]*big.Rat, cols)
		for k := range a[i] {
			a[i][k] = new(big.Rat)
		}
	}
	return a
}

// ratAdd adds the float64 v, converted exactly, to the rational r.
func ratAdd(r *big.Rat, v float64) {
	r.Add(r, new(big.Rat).SetFloat64(v))
}

// exactHitting is the expected time to reach the targets from every
// state, solved exactly: Σ_d rate(s→d)·(h_s − h_d) = 1 off the targets,
// with the exit rate summed in exact arithmetic from the rates.
func exactHitting(t *testing.T, c *CTMC, targets []int) []float64 {
	t.Helper()
	n := c.NumStates()
	isTarget := make([]bool, n)
	for _, s := range targets {
		isTarget[s] = true
	}
	var free []int
	local := make([]int, n)
	for s := 0; s < n; s++ {
		local[s] = -1
		if !isTarget[s] {
			local[s] = len(free)
			free = append(free, s)
		}
	}
	a := ratMatrix(len(free), len(free)+1)
	for i := range free {
		a[i][len(free)].SetInt64(1)
	}
	c.EachTransition(func(tr Transition) {
		i := local[tr.Src]
		if i < 0 {
			return
		}
		ratAdd(a[i][i], tr.Rate)
		if j := local[tr.Dst]; j >= 0 {
			ratAdd(a[i][j], -tr.Rate)
		}
	})
	x := ratSolve(t, a)
	h := make([]float64, n)
	for i, s := range free {
		h[s] = float(x[i][0])
	}
	return h
}

// exactAbsorption is the probability of absorption into each BSCC from
// the initial state, solved exactly over the transient states with one
// right-hand side per BSCC.
func exactAbsorption(t *testing.T, c *CTMC, bsccs [][]int) []float64 {
	t.Helper()
	n := c.NumStates()
	inB := make([]int, n)
	for s := range inB {
		inB[s] = -1
	}
	for bi, members := range bsccs {
		for _, s := range members {
			inB[s] = bi
		}
	}
	var trans []int
	local := make([]int, n)
	for s := 0; s < n; s++ {
		local[s] = -1
		if inB[s] < 0 {
			local[s] = len(trans)
			trans = append(trans, s)
		}
	}
	k := len(trans)
	a := ratMatrix(k, k+len(bsccs))
	c.EachTransition(func(tr Transition) {
		i := local[tr.Src]
		if i < 0 {
			return
		}
		ratAdd(a[i][i], tr.Rate)
		if j := local[tr.Dst]; j >= 0 {
			ratAdd(a[i][j], -tr.Rate)
		} else {
			ratAdd(a[i][k+inB[tr.Dst]], tr.Rate)
		}
	})
	w := make([]float64, len(bsccs))
	for bi, r := range ratSolve(t, a)[local[c.Initial()]] {
		w[bi] = float(r)
	}
	return w
}

// exactBias solves the Poisson equation of an irreducible chain exactly,
// with h[initial] = 0 and that state's equation dropped: the
// stationary distribution and the gain are computed exactly, the gain is
// rounded to float64 as a caller would pass it, and the Poisson system
// is then solved exactly for that rounded gain. It returns the bias and
// the rounded gain.
func exactBias(t *testing.T, c *CTMC, reward []float64) ([]float64, float64) {
	t.Helper()
	n := c.NumStates()
	// Stationary distribution: balance equations with the last one
	// replaced by the normalization.
	a := ratMatrix(n, n+1)
	c.EachTransition(func(tr Transition) {
		if tr.Dst != n-1 {
			ratAdd(a[tr.Dst][tr.Src], tr.Rate)
		}
		if tr.Src != n-1 {
			ratAdd(a[tr.Src][tr.Src], -tr.Rate)
		}
	})
	for i := 0; i <= n; i++ {
		a[n-1][i].SetInt64(1)
	}
	pi := ratSolve(t, a)
	exact := new(big.Rat)
	for s := 0; s < n; s++ {
		exact.Add(exact, new(big.Rat).Mul(pi[s][0], new(big.Rat).SetFloat64(reward[s])))
	}
	gain := new(big.Rat).SetFloat64(float(exact))
	// Poisson equation: Σ_d rate(s→d)(h_s − h_d) = reward_s − g for
	// s ≠ initial, h_initial = 0.
	init := c.Initial()
	local := make([]int, n)
	var free []int
	for s := 0; s < n; s++ {
		local[s] = -1
		if s != init {
			local[s] = len(free)
			free = append(free, s)
		}
	}
	p := ratMatrix(len(free), len(free)+1)
	for i, s := range free {
		p[i][len(free)].Sub(new(big.Rat).SetFloat64(reward[s]), gain)
	}
	c.EachTransition(func(tr Transition) {
		i := local[tr.Src]
		if i < 0 {
			return
		}
		ratAdd(p[i][i], tr.Rate)
		if j := local[tr.Dst]; j >= 0 {
			ratAdd(p[i][j], -tr.Rate)
		}
	})
	x := ratSolve(t, p)
	h := make([]float64, n)
	for i, s := range free {
		h[s] = float(x[i][0])
	}
	return h, float(gain)
}

// stiffRate draws rates 10^(3−6u), spreading them across six orders of
// magnitude.
func stiffRate(rng *rand.Rand) func() float64 {
	return func() float64 { return math.Pow(10, 3-6*rng.Float64()) }
}

// relErr is the largest componentwise relative error of got against
// the exact want (absolute where want is 0).
func relErr(got, want []float64) float64 {
	max := 0.0
	for i := range want {
		d := math.Abs(got[i] - want[i])
		if want[i] != 0 {
			d /= math.Abs(want[i])
		}
		if d > max {
			max = d
		}
	}
	return max
}

// TestHittingMatchesExactOnStiffChains: first-passage times on stiff
// chains of 3–16 states — one GTH block each — match the exact rational
// solve to componentwise relative 1e-12, with no error returned.
// Sweeps stopping on an absolute 1e-12 delta cannot meet that test once
// times reach 1e8 (an ulp there is about 1.5e-8).
func TestHittingMatchesExactOnStiffChains(t *testing.T) {
	rng := rand.New(rand.NewSource(241))
	worst := 0.0
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(14)
		c := randIrreducible(rng, n, n, stiffRate(rng))
		want := exactHitting(t, c, []int{0})
		h, err := c.ExpectedTimeToAbsorption([]int{0}, SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if d := relErr(h, want); d > 1e-12 {
			t.Fatalf("trial %d (n=%d): relative error %g against the exact solve", trial, n, d)
		} else if d > worst {
			worst = d
		}
	}
	t.Logf("worst componentwise relative error %.2g", worst)
}

// stiffBlockChain builds a chain of transient strongly connected blocks
// (ring plus chords, 2–16 states each) that feed later blocks and
// three-state BSCC rings, all rates drawn from rate. Block 0 holds the
// initial state, and its first state always leaks, so every block is a
// transient component.
func stiffBlockChain(rng *rand.Rand, blocks, bsccs int, rate func() float64) *CTMC {
	const ring = 3
	sizes := make([]int, blocks)
	total := 0
	for i := range sizes {
		sizes[i] = 2 + rng.Intn(15)
		total += sizes[i]
	}
	c := NewCTMC(total + bsccs*ring)
	base := 0
	for b, m := range sizes {
		for i := 0; i < m; i++ {
			c.MustAdd(base+i, base+(i+1)%m, rate(), "")
			if j := rng.Intn(m); j != i {
				c.MustAdd(base+i, base+j, rate(), "")
			}
			if i == 0 || rng.Intn(3) == 0 {
				if b+1 < blocks && rng.Intn(2) == 0 {
					c.MustAdd(base+i, base+m+rng.Intn(total-base-m), rate(), "")
				} else {
					c.MustAdd(base+i, total+rng.Intn(bsccs*ring), rate(), "")
				}
			}
		}
		base += m
	}
	for b := 0; b < bsccs; b++ {
		first := total + b*ring
		for k := 0; k < ring; k++ {
			c.MustAdd(first+k, first+(k+1)%ring, rate(), "")
		}
	}
	return c
}

// TestAbsorptionMatchesExactOnStiffBlocks: the adjoint block solve of
// the absorption weights, over transient blocks of 2–16 states with
// stiff rates, matches the exact rational solve to componentwise
// relative 1e-12.
func TestAbsorptionMatchesExactOnStiffBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(242))
	worst := 0.0
	for trial := 0; trial < 8; trial++ {
		c := stiffBlockChain(rng, 3, 2+rng.Intn(3), stiffRate(rng))
		mat := c.matrix()
		comps, compOf := mat.SCCs()
		bsccs := mat.BottomsOf(comps, compOf)
		want := exactAbsorption(t, c, bsccs)
		got, err := c.absorptionBlocks(bsccs, comps, compOf, SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := relErr(got, want); d > 1e-12 {
			t.Fatalf("trial %d: weights %v, exact %v (relative error %g)", trial, got, want, d)
		} else if d > worst {
			worst = d
		}
	}
	t.Logf("worst componentwise relative error %.2g", worst)
}

// TestBiasMatchesExactOnStiffChains: the deflated Poisson solve on small
// irreducible stiff chains matches the exact solve of the same system
// normwise, to 1e-9 of max|h|. The right-hand side reward − gain
// changes sign, so unlike the hitting and absorption systems the
// substitutions cancel and no componentwise bound holds. The chains are
// irreducible with initial state 0, which is also the state Bias pins,
// so both solves drop the same equation; the rounding of the gain
// itself makes the system consistent only to that rounding, an error of
// the inputs that no solver removes.
func TestBiasMatchesExactOnStiffChains(t *testing.T) {
	rng := rand.New(rand.NewSource(243))
	worst := 0.0
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(14)
		c := randIrreducible(rng, n, n, stiffRate(rng))
		reward := make([]float64, n)
		for i := range reward {
			reward[i] = 2 * rng.Float64()
		}
		want, gain := exactBias(t, c, reward)
		h, err := c.Bias(reward, gain, SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		if d := maxDiff(h, want) / scale; d > 1e-9 {
			t.Fatalf("trial %d (n=%d): normwise error %g against the exact solve", trial, n, d)
		} else if d > worst {
			worst = d
		}
	}
	t.Logf("worst normwise error %.2g", worst)
}
