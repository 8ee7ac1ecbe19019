package markov

import (
	"fmt"
	"math"

	"multival/internal/engine"
)

// Transient computes the state distribution at time t, starting from the
// initial state, by uniformization:
//
//	pi(t) = sum_k Poisson(L*t; k) * pi0 * P^k,  P = I + Q/L,
//
// with L slightly above the maximal exit rate. The Poisson series is
// truncated adaptively once the accumulated mass exceeds 1 - epsilon
// (epsilon = 1e-12); for large L*t the summation starts near the Poisson
// mode using logarithmic weights, in the spirit of Fox–Glynn.
func (c *CTMC) Transient(t float64, opts SolveOptions) ([]float64, error) {
	n := c.numStates
	if n == 0 {
		return nil, fmt.Errorf("markov: empty chain")
	}
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		return nil, fmt.Errorf("markov: invalid time %v", t)
	}
	pi := make([]float64, n)
	pi[c.initial] = 1
	if t == 0 || len(c.trans) == 0 {
		return pi, nil
	}

	lambda := c.MaxExitRate() * 1.02
	q := lambda * t
	const eps = 1e-12

	// Poisson weights via the stable recurrence from the mode.
	weights, k0 := poissonWindow(q, eps)

	// result accumulates weights[k] * pi0 P^k.
	result := make([]float64, n)
	cur := pi
	next := make([]float64, n)
	maxK := k0 + len(weights) - 1
	// The vector-matrix product is the sequential scatter AddApplyT over
	// the frozen CSR rate matrix: one pass per step, whose summation
	// order (and so result) no worker count can change.
	mat := c.matrix()
	for k := 0; k <= maxK; k++ {
		if k%progressEvery == 0 {
			if err := opts.canceled("transient", k); err != nil {
				return nil, err
			}
			opts.Progress.Report(engine.Progress{Stage: "transient", States: n, Round: k})
		}
		if k >= k0 {
			w := weights[k-k0]
			for i := range result {
				result[i] += w * cur[i]
			}
		}
		if k == maxK {
			break
		}
		// next = cur * P with P = I + Q/lambda, via the shared CSR
		// rate matrix.
		for i := range next {
			next[i] = cur[i] * (1 - c.exitRate[i]/lambda)
		}
		mat.AddApplyT(cur, next, 1/lambda)
		cur, next = next, cur
	}
	// Normalize the truncation error.
	total := 0.0
	for _, p := range result {
		total += p
	}
	if total > 0 {
		for i := range result {
			result[i] /= total
		}
	}
	return result, nil
}

// poissonWindow returns normalized Poisson(q) weights for the index window
// [k0, k0+len-1] covering at least 1-eps of the mass.
func poissonWindow(q float64, eps float64) ([]float64, int) {
	mode := int(math.Floor(q))
	// log pmf at the mode via Stirling-stable lgamma.
	logPmf := func(k int) float64 {
		lg, _ := math.Lgamma(float64(k + 1))
		return -q + float64(k)*math.Log(q) - lg
	}
	// Expand left and right from the mode until the collected mass
	// reaches 1-eps (in normalized terms the raw pmf sums to <=1).
	lo, hi := mode, mode
	vals := map[int]float64{mode: math.Exp(logPmf(mode))}
	mass := vals[mode]
	for mass < 1-eps {
		grew := false
		if lo > 0 {
			lo--
			v := math.Exp(logPmf(lo))
			vals[lo] = v
			mass += v
			grew = true
		}
		hi++
		v := math.Exp(logPmf(hi))
		vals[hi] = v
		mass += v
		grew = true
		if !grew || hi-lo > 10_000_000 {
			break
		}
		// Stop growing a side once its tail is negligible.
		if vals[lo] < eps*1e-3 && vals[hi] < eps*1e-3 && mass > 1-eps*10 {
			break
		}
	}
	weights := make([]float64, hi-lo+1)
	total := 0.0
	for k := lo; k <= hi; k++ {
		weights[k-lo] = vals[k]
		total += vals[k]
	}
	for i := range weights {
		weights[i] /= total
	}
	return weights, lo
}
