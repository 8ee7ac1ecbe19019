package markov

import (
	"math"

	"multival/internal/engine"
	"multival/internal/sparse"
)

// Bias solves the Poisson equation of the chain for a state reward-rate
// vector: given the long-run average reward (gain) g = sum_i pi_i *
// reward_i, it returns relative values h satisfying
//
//	h_s = (reward_s - g + sum_d rate(s->d) * h_d) / E_s
//
// for non-absorbing states, normalized so h[initial] = 0; absorbing
// states keep h = 0 (with zero exit rate their relative value is pinned
// by the boundary). The bias measures the transient reward advantage of
// starting in a state, and is the improvement gradient of average-reward
// (Howard) policy iteration: a policy switch is profitable exactly when
// it increases instantaneous reward plus successor bias.
//
// The equation is singular along the constant vector and consistent only
// for unichain structure, so a chain with several BSCCs is rejected with
// IrreducibilityError. Without an absorbing boundary, pinning h at 0 on
// a recurrent reference state leaves a nonsingular system whose leak is
// the rate into the reference, solved by solveBlock like a hitting
// block. With an absorbing boundary (absorbing states pinned at 0, a
// fixed point the deflated system does not share) it runs the DAMPED
// Jacobi hitting kernel, rows sharded across opts.Workers. Gauss–Seidel
// would not do: on a cycle of odd length its operator keeps an
// eigenvalue of modulus one and the iterate oscillates forever; the
// damped operator (I + P)/2, P the embedded jump chain, maps the
// spectrum strictly inside the unit disk except the constant direction,
// which is projected to h[initial] = 0 after every sweep. Convergence is
// measured relative to the magnitude of h.
func (c *CTMC) Bias(reward []float64, gain float64, opts SolveOptions) ([]float64, error) {
	n := c.numStates
	mat := c.matrix() // the bias solve never reads the incoming view
	bsccs := c.bsccs()
	if len(bsccs) > 1 {
		return nil, &IrreducibilityError{bsccs[1][0], "is in a second bottom component (bias needs unichain structure)"}
	}
	if ref := bsccs[0][0]; c.exitRate[ref] > 0 {
		return c.biasDeflated(reward, gain, ref, opts)
	}
	skip := make([]bool, n)
	b := make([]float64, n)
	for s := 0; s < n; s++ {
		if c.exitRate[s] == 0 {
			skip[s] = true
			continue
		}
		b[s] = reward[s] - gain
	}
	h := make([]float64, n)
	next := make([]float64, n)
	ref := c.initial
	residual := math.Inf(1)
	for iter := 0; iter < iterationBudget; iter++ {
		if err := opts.canceled("bias", iter); err != nil {
			return nil, err
		}
		residual = sparse.HittingSweepJacobi(mat, skip, b, c.exitRate, h, next, opts.workers())
		h, next = next, h
		// Project out the constant direction and measure scale.
		shift := h[ref]
		norm := 0.0
		for s := 0; s < n; s++ {
			if !skip[s] {
				h[s] -= shift
			}
			if a := math.Abs(h[s]); a > norm {
				norm = a
			}
		}
		if iter%progressEvery == 0 {
			opts.Progress.Report(engine.Progress{Stage: "bias", States: n, Round: iter, Residual: residual})
		}
		if residual < tolerance*(1+norm) {
			return h, nil
		}
	}
	return nil, &ConvergenceError{Iterations: iterationBudget, Residual: residual, Method: kernelJacobi}
}

// biasDeflated solves the Poisson equation with h pinned at 0 on the
// recurrent reference state ref, then shifts the result to the
// h[initial] = 0 convention.
func (c *CTMC) biasDeflated(reward []float64, gain float64, ref int, opts SolveOptions) ([]float64, error) {
	n := c.numStates
	mat := c.matrix()
	free := make([]int, 0, n-1)
	for s := 0; s < n; s++ {
		if s != ref {
			free = append(free, s)
		}
	}
	var bs blockScratch
	x, rhs, diag, leak := bs.grow(n - 1) // fresh, so x and leak start at 0
	for i, s := range free {
		diag[i] = c.exitRate[s]
		rhs[i] = reward[s] - gain
		cols, vals := mat.Row(s)
		for p, d := range cols {
			if int(d) == ref {
				leak[i] += vals[p]
			}
		}
	}
	if err := solveBlock(mat.Submatrix(free), diag, leak, rhs, x, false, "bias", opts, &bs); err != nil {
		return nil, err
	}
	h := make([]float64, n)
	for i, s := range free {
		h[s] = x[i]
	}
	shift := h[c.initial]
	for s := range h {
		h[s] -= shift
	}
	return h, nil
}
