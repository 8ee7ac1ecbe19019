// SCC-topological block solvers. The hitting-type analyses (absorption
// weights, expected first passage) decompose the chain into strongly
// connected components once (sparse.SCCs, reverse topological order),
// then solve each component's linear system in isolation: by the time a
// component is visited, every state it can reach outside itself is
// already solved, so its contribution moves to the right-hand side and
// the component system is small, nonsingular and diagonally dominant.
// Each block below krylovMinStates unknowns is solved directly by GTH
// elimination (no iteration, no tolerance); larger blocks run BiCGSTAB,
// with damped-Jacobi fallback on Krylov breakdown or stall. One scratch
// set is reused across all blocks of a solve.
package markov

import (
	"fmt"
	"math"

	"multival/internal/engine"
	"multival/internal/sparse"
)

// blockScratch reuses every allocation of a block-structured solve
// across blocks and systems: the Krylov work vectors, the dense GTH
// factor, plus the compacted right-hand side, solution, leak and
// fallback double-buffer of the current block. The zero value is ready;
// buffers grow to the largest block seen.
type blockScratch struct {
	ks    sparse.KrylovScratch
	x     []float64
	rhs   []float64
	diag  []float64
	leak  []float64
	next  []float64
	dense []float64
	mi    []int
}

// grow sizes the per-block buffers for a block of n states and returns
// the caller-filled ones (x, rhs, diag, leak).
func (bs *blockScratch) grow(n int) (x, rhs, diag, leak []float64) {
	if cap(bs.x) < n {
		bs.x = make([]float64, n)
		bs.rhs = make([]float64, n)
		bs.diag = make([]float64, n)
		bs.leak = make([]float64, n)
		bs.next = make([]float64, n)
	}
	return bs.x[:n], bs.rhs[:n], bs.diag[:n], bs.leak[:n]
}

// members widens an SCC member list to the []int form Submatrix takes,
// reusing one buffer.
func (bs *blockScratch) members(comp []int32) []int {
	if cap(bs.mi) < len(comp) {
		bs.mi = make([]int, len(comp))
	}
	mi := bs.mi[:len(comp)]
	for i, s := range comp {
		mi[i] = int(s)
	}
	return mi
}

// solveBlock solves one block system A x = rhs, A = diag − sub, or with
// transposed Aᵀ x = rhs, sub then holding the transposed rates. leak[i]
// is the rate at which state i leaves the untransposed block, summed by
// the caller from its CSR row (it is overwritten). Blocks below
// krylovMinStates are solved directly by gth, larger ones by BiCGSTAB
// with damped-Jacobi fallback on breakdown or stall. x carries the
// initial guess in and the solution out.
func solveBlock(sub *sparse.Matrix, diag, leak, rhs, x []float64, transposed bool, stage string, opts SolveOptions, bs *blockScratch) error {
	n := len(x)
	if n < krylovMinStates {
		if err := opts.canceled(stage, 0); err != nil {
			return err
		}
		return bs.gth(sub, leak, rhs, x, transposed, stage)
	}
	probe := func(iter int, res float64) error {
		if err := opts.canceled(stage, iter); err != nil {
			return err
		}
		if iter%progressEvery == 0 {
			opts.Progress.Report(engine.Progress{Stage: stage, States: n, Round: iter, Residual: res})
		}
		return nil
	}
	st, _, _, err := sparse.BiCGSTAB(sub, diag, rhs, x, tolerance, krylovMaxIter(n), opts.workers(), &bs.ks, probe)
	if err != nil {
		return err
	}
	if st == sparse.KrylovConverged {
		return nil
	}
	// Breakdown or stall: restart the semiconvergent damped-Jacobi
	// sweeps from a zero guess (the partial Krylov iterate may be
	// arbitrarily far off after a breakdown).
	nFallbackKrylovJacobi.Add(1)
	for i := range x {
		x[i] = 0
	}
	skip := make([]bool, n) // block systems compact boundaries away
	cur, next := x, bs.next[:n]
	residual := math.Inf(1)
	for iter := 0; iter < iterationBudget; iter++ {
		if err := opts.canceled(stage, iter); err != nil {
			return err
		}
		residual = sparse.HittingSweepJacobi(sub, skip, rhs, diag, cur, next, opts.workers())
		cur, next = next, cur
		if iter%progressEvery == 0 {
			opts.Progress.Report(engine.Progress{Stage: stage, States: n, Round: iter, Residual: residual})
		}
		if residual < tolerance {
			if &cur[0] != &x[0] {
				copy(x, cur)
			}
			return nil
		}
	}
	return &ConvergenceError{Iterations: iterationBudget, Residual: residual, Method: kernelBiCGSTAB, Fallback: kernelJacobi}
}

// gth solves one small block directly by the subtraction-free
// elimination of Grassmann, Taksar and Heyman (Oper. Res. 33(5), 1985).
// The untransposed block is A = diag(p) − S, S ≥ 0 the in-block rates
// and p_i = leak_i + Σ_j S_ij. Eliminating state k censors the chain to
// the states after it: S_ij += S_ik·S_kj/p_k, leak_i += S_ik·leak_k/p_k,
// and each pivot is recomputed as its leak plus the remaining rates of
// its row instead of being subtracted from the exit rate. So with
// rhs ≥ 0 every step adds nonnegative terms only, and no digit is lost
// to cancellation however stiff the rates. The dense factor A = LU keeps
// the pivots on the diagonal, U's rates right of it and L's multipliers
// S_ik/p_k below it; the forward substitution (through L for A, through
// Uᵀ for Aᵀ) runs inside the elimination, the back substitution after.
func (bs *blockScratch) gth(sub *sparse.Matrix, leak, rhs, x []float64, transposed bool, stage string) error {
	n := len(x)
	if cap(bs.dense) < n*n {
		bs.dense = make([]float64, n*n)
	}
	a := bs.dense[:n*n]
	clear(a)
	for r := 0; r < n; r++ {
		cols, vals := sub.Row(r)
		for p, c := range cols {
			if transposed {
				a[int(c)*n+r] += vals[p]
			} else {
				a[r*n+int(c)] += vals[p]
			}
		}
	}
	copy(x, rhs)
	for k := 0; k < n; k++ {
		row := a[k*n : (k+1)*n]
		pivot := leak[k]
		for _, v := range row[k+1:] {
			pivot += v
		}
		if pivot == 0 {
			return fmt.Errorf("markov: singular %s block: local state %d of %d has no path out: %w", stage, k, n, engine.ErrNotIrreducible)
		}
		row[k] = pivot
		if transposed {
			x[k] /= pivot
			for j := k + 1; j < n; j++ {
				x[j] += row[j] * x[k]
			}
		}
		for i := k + 1; i < n; i++ {
			ri := a[i*n : (i+1)*n]
			if ri[k] == 0 {
				continue
			}
			f := ri[k] / pivot
			ri[k] = f
			// The j = i term lands on the unused diagonal slot, which
			// state i's pivot overwrites.
			for j := k + 1; j < n; j++ {
				ri[j] += f * row[j]
			}
			leak[i] += f * leak[k]
			if !transposed {
				x[i] += f * x[k]
			}
		}
	}
	for k := n - 1; k >= 0; k-- {
		sum := x[k]
		if transposed {
			for i := k + 1; i < n; i++ {
				sum += a[i*n+k] * x[i]
			}
			x[k] = sum
			continue
		}
		row := a[k*n : (k+1)*n]
		for j := k + 1; j < n; j++ {
			sum += row[j] * x[j]
		}
		x[k] = sum / row[k]
	}
	return nil
}

// absorptionBlocks computes the per-BSCC absorption probabilities from
// the initial state by solving ONE adjoint system instead of one
// hitting system per BSCC. The expected-visits vector y solves the
// transposed system
//
//	(diag(E) − T)ᵀ y = e_init   over transient states,
//
// so y[s] = e_initᵀ(diag(E)−T)⁻¹e_s and the absorption probability into
// BSCC bi is the single inner product yᵀr_bi, where r_bi[s] = Σ_{d∈bi}
// rate(s→d) — all k weights fall out of the same solve. comps/compOf is
// the SCCs() decomposition of the rate matrix and bsccs its bottoms.
// Components are in reverse topological order (cross-component edges
// point to lower indices), which TRANSPOSED edges traverse upward — so
// the adjoint blocks are solved descending from the initial state's
// component, and reachability from the initial state settles in the
// same descending pass (unreachable components keep y = 0 and are
// skipped).
func (c *CTMC) absorptionBlocks(bsccs [][]int, comps [][]int32, compOf []int32, opts SolveOptions) ([]float64, error) {
	n := c.numStates
	k := len(bsccs)
	weights := make([]float64, k)
	inBSCC := make([]int, n)
	for i := range inBSCC {
		inBSCC[i] = -1
	}
	for bi, members := range bsccs {
		for _, s := range members {
			inBSCC[s] = bi
		}
	}
	if b := inBSCC[c.initial]; b >= 0 {
		weights[b] = 1
		return weights, nil
	}
	mat := c.matrix()
	tin := c.incoming()
	isBottom := make([]bool, len(comps))
	for _, members := range bsccs {
		isBottom[compOf[members[0]]] = true
	}
	ci0 := int(compOf[c.initial])
	reach := make([]bool, len(comps))
	reach[ci0] = true
	y := make([]float64, n)
	var bs blockScratch
	block := 0
	for ci := ci0; ci >= 0; ci-- {
		if !reach[ci] {
			continue
		}
		members := comps[ci]
		if !isBottom[ci] {
			if len(members) == 1 {
				// Singleton transient component (no self-loops by
				// construction): every upstream source is already
				// solved.
				s := int(members[0])
				sum := 0.0
				if s == c.initial {
					sum = 1
				}
				cols, vals := tin.Row(s)
				for p, src := range cols {
					sum += vals[p] * y[src]
				}
				y[s] = sum / c.exitRate[s]
			} else {
				// The block's transposed system: the in-component
				// incoming submatrix IS the transpose of the block, and
				// transposition preserves the diagonal, so the exit
				// rates stay the preconditioner. The leak is the rate
				// out of the component along the untransposed row.
				mi := bs.members(members)
				subT := tin.Submatrix(mi)
				x, rhs, diag, leak := bs.grow(len(mi))
				for i, s := range mi {
					diag[i] = c.exitRate[s]
					sum := 0.0
					if s == c.initial {
						sum = 1
					}
					cols, vals := tin.Row(s)
					for p, src := range cols {
						if compOf[src] != int32(ci) {
							sum += vals[p] * y[src]
						}
					}
					rhs[i] = sum
					x[i] = 0
					out := 0.0
					cols, vals = mat.Row(s)
					for p, d := range cols {
						if compOf[d] != int32(ci) {
							out += vals[p]
						}
					}
					leak[i] = out
				}
				if err := solveBlock(subT, diag, leak, rhs, x, true, "absorb", opts, &bs); err != nil {
					return nil, err
				}
				for i, s := range mi {
					y[s] = x[i]
				}
			}
			opts.Progress.Report(engine.Progress{Stage: "absorb", States: len(members), Round: block, Done: false})
			block++
		}
		// Propagate reachability along the original (downward) edges;
		// bottoms have none, so only transient components spread marks.
		for _, s := range members {
			cols, _ := mat.Row(int(s))
			for _, d := range cols {
				reach[compOf[d]] = true
			}
		}
	}
	// weights[bi] = yᵀr_bi: fold every transient state's rates into the
	// bottoms it feeds, weighted by its expected-visits mass.
	for ci := 0; ci <= ci0; ci++ {
		if !reach[ci] || isBottom[ci] {
			continue
		}
		for _, s32 := range comps[ci] {
			s := int(s32)
			ys := y[s]
			if ys == 0 {
				continue
			}
			cols, vals := mat.Row(s)
			for p, d := range cols {
				if bi := inBSCC[d]; bi >= 0 {
					weights[bi] += ys * vals[p]
				}
			}
		}
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			// Tiny negative Krylov residue; the true weight is ≥ 0.
			weights[i] = 0
			continue
		}
		total += w
	}
	if total > 0 {
		for i := range weights {
			weights[i] /= total
		}
	}
	return weights, nil
}

// stronglyConnectedAll reports whether the chain is one strongly
// connected component: a forward BFS over the rate matrix and a backward
// BFS over its transpose, both from state 0, must each cover every
// state. Two flat CSR passes are far cheaper than the full Tarjan
// decomposition they stand in for, and the transpose they touch is the
// cached incoming view the stationary solve reads anyway.
func (c *CTMC) stronglyConnectedAll() bool {
	n := c.numStates
	if n == 1 {
		return true
	}
	return coversAll(c.matrix(), n) && coversAll(c.incoming(), n)
}

// coversAll reports whether a depth-first sweep from state 0 over m
// visits all n states.
func coversAll(m *sparse.Matrix, n int) bool {
	seen := make([]bool, n)
	seen[0] = true
	count := 1
	stack := make([]int32, 1, 64)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cols, _ := m.Row(int(s))
		for _, d := range cols {
			if !seen[d] {
				seen[d] = true
				count++
				stack = append(stack, d)
			}
		}
	}
	return count == n
}

// hittingBlocks solves the expected-time-to-absorption system
// block-by-block over the SCC decomposition: h[s] = (1 + Σ rate(s→d)
// h[d]) / E_s on non-targets, 0 on targets. Reachability of the targets
// from every state has already been verified by the caller, so every
// block system leaks (toward a target or an earlier component) and is
// nonsingular.
func (c *CTMC) hittingBlocks(isTarget []bool, opts SolveOptions) ([]float64, error) {
	n := c.numStates
	mat := c.matrix()
	comps, compOf := mat.SCCs()
	h := make([]float64, n)
	var bs blockScratch
	free := make([]int, 0, 64)
	block := 0
	for ci := range comps {
		members := comps[ci]
		free = free[:0]
		for _, s := range members {
			if !isTarget[int(s)] {
				free = append(free, int(s))
			}
		}
		if len(free) == 0 {
			continue
		}
		if len(free) == 1 && len(members) == 1 {
			s := free[0]
			cols, vals := mat.Row(s)
			sum := 1.0
			for p, d := range cols {
				sum += vals[p] * h[d]
			}
			h[s] = sum / c.exitRate[s]
		} else {
			sub := mat.Submatrix(free)
			x, rhs, diag, leak := bs.grow(len(free))
			for i, s := range free {
				diag[i] = c.exitRate[s]
				sum := 1.0
				out := 0.0
				cols, vals := mat.Row(s)
				for p, d := range cols {
					// Both leave the block: in-component targets (h = 0,
					// compacted away) and the already solved states out
					// of the component.
					if compOf[d] != int32(ci) || isTarget[d] {
						sum += vals[p] * h[d]
						out += vals[p]
					}
				}
				rhs[i] = sum
				leak[i] = out
				x[i] = 0
			}
			if err := solveBlock(sub, diag, leak, rhs, x, false, "fpt", opts, &bs); err != nil {
				return nil, err
			}
			for i, s := range free {
				h[s] = x[i]
			}
		}
		opts.Progress.Report(engine.Progress{Stage: "fpt", States: len(free), Round: block})
		block++
	}
	return h, nil
}
