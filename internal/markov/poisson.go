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
// A chain with at least krylovMinStates+1 states and no absorbing
// boundary solves one deflated BiCGSTAB system (see biasKrylov). Every
// other chain, and a Krylov breakdown or stall, runs the DAMPED Jacobi
// hitting kernel (rows sharded across opts.Workers). Gauss–Seidel would
// not do: its order sweeps along OUTGOING edges, and on a cycle of odd
// length its iteration operator keeps an eigenvalue of modulus one, so
// the iterate oscillates forever; the damped Jacobi operator is (I + P)/2 with P the
// embedded jump chain, whose spectrum it maps strictly inside the unit
// disk except at the constant direction. That direction is projected to
// h[initial] = 0 after every sweep; convergence is measured relative to
// the magnitude of h. The equation is singular along the constant
// vector, and the gain cancels its drift only for unichain structure —
// a chain with several BSCCs (whose local gains generally differ from
// g) is rejected up front with IrreducibilityError rather than letting
// the iterate drift through the whole iteration budget.
func (c *CTMC) Bias(reward []float64, gain float64, opts SolveOptions) ([]float64, error) {
	opts = opts.withDefaults()
	n := c.numStates
	c.matrix() // the bias sweep never reads the incoming view
	bsccs := c.bsccs()
	if len(bsccs) > 1 {
		return nil, &IrreducibilityError{bsccs[1][0], "is in a second bottom component (bias needs unichain structure)"}
	}
	// Krylov path: when the chain has no absorbing boundary (the usual
	// unichain case), pinning h at one recurrent reference state makes
	// the Poisson system nonsingular and one deflated BiCGSTAB solve
	// replaces the damped sweeps. With an absorbing boundary the sweep's
	// projection semantics (absorbing states pinned at 0) differ from
	// the deflated system, so the sweep path keeps that case.
	krylovFell := false
	if n-1 >= krylovMinStates {
		ref := bsccs[0][0]
		if c.exitRate[ref] > 0 {
			h, ok, err := c.biasKrylov(reward, gain, ref, opts)
			if err != nil {
				return nil, err
			}
			if ok {
				return h, nil
			}
			krylovFell = true
		}
	}
	mat := c.matrix()
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
	for iter := 0; iter < opts.MaxIterations; iter++ {
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
		if residual < opts.Tolerance*(1+norm) {
			return h, nil
		}
	}
	ce := &ConvergenceError{Iterations: opts.MaxIterations, Residual: residual, Method: kernelJacobi}
	if krylovFell {
		ce.Method = kernelBiCGSTAB
		ce.Fallback = kernelJacobi
	}
	return nil, ce
}
