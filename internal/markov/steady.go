package markov

import (
	"context"
	"fmt"
	"math"

	"multival/internal/engine"
	"multival/internal/sparse"
)

// SolveOptions carries the per-call settings of a solve; tolerances and
// iteration budgets are fixed package-wide (tolerance, maxIterations).
type SolveOptions struct {
	// Workers shards the row-parallel kernels — the BiCGSTAB matvec and
	// the damped-Jacobi fallback and bias sweeps — across that many
	// goroutines (0 or 1 = sequential). It shards work and never changes
	// a result: every kernel it reaches returns the same bits at any
	// worker count.
	Workers int
	// Ctx, when non-nil, cancels the solver: every sweep and
	// uniformization step checks it, and the solve returns Ctx.Err()
	// (wrapped) once the context is done. Carried in the options struct
	// so it threads through the nested solver helpers without widening
	// every signature.
	Ctx context.Context
	// Progress, when non-nil, observes solver sweeps (stage "steady",
	// "absorb", "fpt", "bias" or "transient"; Round is the sweep
	// number, Residual the current max-norm delta).
	Progress engine.ProgressFunc
}

// workers returns the shard count of the row-parallel kernels.
func (o SolveOptions) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// canceled returns the wrapped context error once the solve's context is
// done, nil otherwise.
func (o SolveOptions) canceled(stage string, sweep int) error {
	if err := engine.Canceled(o.Ctx); err != nil {
		return fmt.Errorf("markov: %s solve canceled at sweep %d: %w", stage, sweep, err)
	}
	return nil
}

// progressEvery is the number of solver sweeps between progress reports.
const progressEvery = 128

// ConvergenceError reports that an iterative solver did not converge;
// Residual carries the max-norm delta of the last sweep.
type ConvergenceError struct {
	Iterations int
	Residual   float64
	// Method names the solver kernel that ran on the failing system
	// ("gs", "jacobi" or "bicgstab").
	Method string
	// Fallback names the kernel the solve downgraded to before
	// exhausting the budget (GS stagnation → "jacobi", BiCGSTAB
	// breakdown → "jacobi"); empty when no fallback was taken.
	Fallback string
}

func (e *ConvergenceError) Error() string {
	msg := fmt.Sprintf("markov: no convergence after %d iterations (residual %g, method %s", e.Iterations, e.Residual, e.Method)
	if e.Fallback != "" {
		msg += ", fell back to " + e.Fallback
	}
	return msg + ")"
}

// Unwrap classifies the error as the shared no-convergence sentinel, so
// errors.Is(err, engine.ErrNoConvergence) holds.
func (e *ConvergenceError) Unwrap() error { return engine.ErrNoConvergence }

// IrreducibilityError reports that an analysis needed reachability the
// chain does not have (a state that cannot reach any target, or an
// absorbing state outside the target set).
type IrreducibilityError struct {
	State  int
	Reason string
}

func (e *IrreducibilityError) Error() string {
	return fmt.Sprintf("markov: state %d %s", e.State, e.Reason)
}

// Unwrap classifies the error as the shared irreducibility sentinel, so
// errors.Is(err, engine.ErrNotIrreducible) holds.
func (e *IrreducibilityError) Unwrap() error { return engine.ErrNotIrreducible }

// SteadyState computes the limiting distribution of the chain started in
// the initial state. Transient states receive probability zero; when the
// chain has several bottom strongly connected components (BSCCs), their
// stationary distributions are weighted by the probability of absorption
// into each BSCC from the initial state.
func (c *CTMC) SteadyState(opts SolveOptions) ([]float64, error) {
	n := c.numStates
	if n == 0 {
		return nil, fmt.Errorf("markov: empty chain")
	}
	// The absorption weights need the full SCC decomposition (transient
	// components included) — except when two BFS passes prove the chain
	// is one strongly connected component, in which case the whole
	// decomposition is skipped: the single BSCC is the entire state
	// space.
	var (
		comps  [][]int32
		compOf []int32
		bsccs  [][]int
	)
	if c.stronglyConnectedAll() {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		bsccs = [][]int{all}
	} else {
		mat := c.matrix()
		comps, compOf = mat.SCCs()
		bsccs = mat.BottomsOf(comps, compOf)
	}
	if len(bsccs) == 0 {
		return nil, fmt.Errorf("markov: no bottom component (internal error)")
	}

	pi := make([]float64, n)
	if len(bsccs) == 1 {
		local, err := c.stationaryWithin(bsccs[0], opts)
		if err != nil {
			return nil, err
		}
		for i, s := range bsccs[0] {
			pi[s] = local[i]
		}
		return pi, nil
	}

	// Multiple BSCCs: weight each stationary distribution by the
	// absorption probability from the initial state.
	weights, err := c.absorptionBlocks(bsccs, comps, compOf, opts)
	if err != nil {
		return nil, err
	}
	for bi, members := range bsccs {
		if weights[bi] == 0 {
			continue
		}
		local, err := c.stationaryWithin(members, opts)
		if err != nil {
			return nil, err
		}
		for i, s := range members {
			pi[s] += weights[bi] * local[i]
		}
	}
	return pi, nil
}

// stationaryWithin solves the stationary distribution restricted to one
// BSCC from the balance equations
//
//	pi_j * E_j = sum_i pi_i * rate(i->j),
//
// renormalizing every sweep. The BSCC's incoming submatrix is compacted
// once into a local CSR form, then every sweep reads the flat
// rowOff/col/val arrays: Gauss–Seidel in place, switching to damped
// Jacobi if the sweep stagnates. An absorbing singleton gets
// probability 1.
func (c *CTMC) stationaryWithin(members []int, opts SolveOptions) ([]float64, error) {
	m := len(members)
	if m == 1 {
		return []float64{1}, nil
	}
	// Local incoming submatrix: row j lists the in-component transitions
	// into members[j]. Row sums of the outgoing submatrix are the local
	// exit rates (a BSCC has no edge leaving the component, so they
	// equal the full exit rates; compacting keeps that true by
	// construction even on defective input). When the BSCC is the whole
	// chain — the common irreducible case — the compaction would be an
	// identity copy, so the original matrix and its cached transpose are
	// used directly; the exit rates are then re-accumulated in CSR row
	// order, which reproduces the Submatrix row sums bit for bit.
	exit := make([]float64, m)
	var sub, tin *sparse.Matrix
	if m == c.numStates {
		sub = c.matrix()
		tin = c.incoming()
		for i := range exit {
			_, vals := sub.Row(i)
			total := 0.0
			for _, v := range vals {
				total += v
			}
			exit[i] = total
		}
	} else {
		sub = c.matrix().Submatrix(members)
		tin = sub.Transpose()
		for i := range exit {
			exit[i] = sub.RowSum(i)
		}
	}

	pi := make([]float64, m)
	for i := range pi {
		pi[i] = 1 / float64(m)
	}
	// Gauss–Seidel converges in the fewest sweeps, but its convergence
	// depends on the sweep order agreeing with the cycle structure: on
	// an odd-length cycle oriented against the index order the sweep
	// operator keeps an eigenvalue of modulus one and the residual
	// stagnates. Detect stagnation (the residual failing to shrink
	// across a window) and fall back to the damped Jacobi sweep, which
	// is semiconvergent on every irreducible component regardless of
	// orientation.
	useJacobi := false
	var next []float64
	const stagnationWindow = 128
	windowResidual := math.Inf(1)
	residual := math.Inf(1)
	for iter := 0; iter < iterationBudget; iter++ {
		if err := opts.canceled("steady", iter); err != nil {
			return nil, err
		}
		if useJacobi {
			residual = sparse.StationarySweepJacobi(tin, exit, pi, next, opts.workers())
			pi, next = next, pi
		} else {
			residual = sparse.StationarySweepGS(tin, exit, pi)
			if iter%stagnationWindow == stagnationWindow-1 {
				// Oscillation holds the residual constant (ratio ~1);
				// a chain merely converging slowly still shrinks it.
				// The 0.999 threshold only trips at a per-sweep factor
				// above 0.999992 — where Gauss–Seidel is effectively
				// stuck too, so the damped-Jacobi penalty is moot.
				if residual >= 0.999*windowResidual {
					useJacobi = true
					nFallbackGSJacobi.Add(1)
					next = make([]float64, m)
				}
				windowResidual = residual
			}
		}
		// Normalize.
		total := 0.0
		for _, p := range pi {
			total += p
		}
		if total <= 0 {
			return nil, fmt.Errorf("markov: stationary iteration degenerated")
		}
		for j := range pi {
			pi[j] /= total
		}
		if iter%progressEvery == 0 {
			opts.Progress.Report(engine.Progress{Stage: "steady", States: m, Round: iter, Residual: residual})
		}
		if residual < tolerance {
			return pi, nil
		}
	}
	ce := &ConvergenceError{Iterations: iterationBudget, Residual: residual, Method: kernelGS}
	if useJacobi {
		ce.Fallback = kernelJacobi
	}
	return nil, ce
}

// Throughput returns the steady-state occurrence rate of transitions whose
// label satisfies pred: sum over matching transitions of pi(src)*rate.
func (c *CTMC) Throughput(pi []float64, pred func(label string) bool) float64 {
	total := 0.0
	for _, t := range c.trans {
		if pred(t.Label) {
			total += pi[t.Src] * t.Rate
		}
	}
	return total
}

// ExpectedTimeToAbsorption returns, for every state, the expected time
// until one of the target states is first reached (0 on targets). It
// returns an error if some state cannot reach a target (infinite
// expectation) — callers should trim to relevant states first.
func (c *CTMC) ExpectedTimeToAbsorption(targets []int, opts SolveOptions) ([]float64, error) {
	n := c.numStates
	isTarget := make([]bool, n)
	for _, s := range targets {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("markov: target %d out of range", s)
		}
		isTarget[s] = true
	}
	c.Freeze()
	// Reachability check (backwards from targets, over the shared
	// transposed rate matrix).
	canReach := make([]bool, n)
	tin := c.incoming()
	var stack []int
	for s := range isTarget {
		if isTarget[s] {
			canReach[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		srcs, _ := tin.Row(s)
		for _, src := range srcs {
			if !canReach[src] {
				canReach[src] = true
				stack = append(stack, int(src))
			}
		}
	}
	for s := 0; s < n; s++ {
		if !canReach[s] {
			return nil, &IrreducibilityError{s, "cannot reach any target (infinite expected time)"}
		}
		if !isTarget[s] && c.exitRate[s] == 0 {
			return nil, &IrreducibilityError{s, "is absorbing but not a target"}
		}
	}

	// h[s] = (1 + sum_d rate(s->d)*h[d]) / exit[s] on non-targets,
	// solved component by component in reverse topological order.
	return c.hittingBlocks(isTarget, opts)
}
