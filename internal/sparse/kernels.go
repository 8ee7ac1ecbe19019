// Flat CSR sweep kernels for the iterative Markov solvers. The solvers in
// internal/markov used to sweep every edge through a per-transition
// closure (CTMC.EachFrom chasing the tag table); these kernels read the
// contiguous rowOff/col/val arrays directly, with no closures, maps or
// tag-table hops in the inner loop. Each kernel performs ONE sweep and
// returns the max-norm delta; the iteration loop — cancellation, progress,
// normalization, convergence — stays with the caller.
//
// Two kernel families cover the iterative solvers:
//
//   - Stationary sweeps update pi[j] = (sum_i pi[i]*rate(i->j)) / exit[j]
//     over a compacted incoming submatrix (steady state within one BSCC).
//   - Hitting sweeps update h[s] = (b[s] + sum_d rate(s->d)*h[d]) / diag[s]
//     over the outgoing matrix with a skip mask (the fallback of a
//     stalled BiCGSTAB block solve, and the bias equation of a chain with
//     an absorbing boundary, b=reward-gain).
//
// The stationary kernel has a sequential Gauss–Seidel form (in-place,
// the default: fewer sweeps to converge); both have a parallel Jacobi
// form (cur/next vectors, rows chunk-sharded across workers: each worker
// owns a contiguous row range of next and only reads cur, so sweeps are
// race-free; every row is computed the same way whatever the sharding,
// so the worker count never changes the result). The Jacobi forms are
// damped with weight 1/2 — the undamped sweep is a power iteration whose
// operator has unit-modulus eigenvalues on periodic chains (a pure ring
// BSCC oscillates forever); averaging with the current iterate maps
// every such eigenvalue except 1 strictly inside the unit disk without
// moving the fixed point.
package sparse

import (
	"math"
	"sync"
)

// Submatrix returns the compacted submatrix induced by members: state
// members[i] becomes local row/column i and only entries with both
// endpoints inside members survive. Tags are not carried (the kernels
// never need them). Rows of the result are sorted by local column even
// when members is not ascending. For components much smaller than the
// matrix the membership index is a map, so compacting every BSCC of a
// chain stays linear in the total component size rather than quadratic
// in the matrix dimension.
func (m *Matrix) Submatrix(members []int) *Matrix {
	k := len(members)
	var localOf func(int32) int32
	if k*16 < m.n {
		idx := make(map[int32]int32, k)
		for i, s := range members {
			idx[int32(s)] = int32(i)
		}
		localOf = func(s int32) int32 {
			if i, ok := idx[s]; ok {
				return i
			}
			return -1
		}
	} else {
		idx := make([]int32, m.n)
		for i := range idx {
			idx[i] = -1
		}
		for i, s := range members {
			idx[s] = int32(i)
		}
		localOf = func(s int32) int32 { return idx[s] }
	}
	sub := &Matrix{
		n:      k,
		rowOff: make([]int32, k+1),
		rowSum: make([]float64, k),
	}
	for i, s := range members {
		lo, hi := m.rowOff[s], m.rowOff[s+1]
		for p := lo; p < hi; p++ {
			if localOf(m.col[p]) >= 0 {
				sub.rowOff[i+1]++
			}
		}
	}
	for i := 0; i < k; i++ {
		sub.rowOff[i+1] += sub.rowOff[i]
	}
	nnz := int(sub.rowOff[k])
	sub.col = make([]int32, nnz)
	sub.val = make([]float64, nnz)
	for i, s := range members {
		lo, hi := m.rowOff[s], m.rowOff[s+1]
		q := sub.rowOff[i]
		sorted := true
		for p := lo; p < hi; p++ {
			c := localOf(m.col[p])
			if c < 0 {
				continue
			}
			if q > sub.rowOff[i] && c < sub.col[q-1] {
				sorted = false
			}
			sub.col[q] = c
			sub.val[q] = m.val[p]
			sub.rowSum[i] += m.val[p]
			q++
		}
		if !sorted {
			sub.sortRow(int(sub.rowOff[i]), int(q))
		}
	}
	return sub
}

// rowChunks runs f over `workers` contiguous row ranges covering [0, n)
// and returns the maximum of the per-chunk results (the sweep residual).
func rowChunks(n, workers int, f func(lo, hi int) float64) float64 {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return f(0, n)
	}
	deltas := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			deltas[w] = f(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	max := 0.0
	for _, d := range deltas {
		if d > max {
			max = d
		}
	}
	return max
}

// StationarySweepGS performs one in-place Gauss–Seidel sweep of the
// stationary balance equations on the incoming matrix tin (row j lists
// the transitions INTO state j): pi[j] <- (sum_i pi[i]*rate(i->j)) /
// exit[j]. Rows with exit zero are left untouched. Returns the max-norm
// delta of the sweep.
func StationarySweepGS(tin *Matrix, exit, pi []float64) float64 {
	maxDelta := 0.0
	for j := 0; j < tin.n; j++ {
		if exit[j] == 0 {
			continue
		}
		sum := 0.0
		lo, hi := tin.rowOff[j], tin.rowOff[j+1]
		for p := lo; p < hi; p++ {
			sum += pi[tin.col[p]] * tin.val[p]
		}
		next := sum / exit[j]
		if d := math.Abs(next - pi[j]); d > maxDelta {
			maxDelta = d
		}
		pi[j] = next
	}
	return maxDelta
}

// StationarySweepJacobi is the parallel (damped) Jacobi form of
// StationarySweepGS: next[j] is computed from cur only, rows
// chunk-sharded across workers. Rows with exit zero copy through.
// Returns the max-norm delta.
func StationarySweepJacobi(tin *Matrix, exit, cur, next []float64, workers int) float64 {
	return rowChunks(tin.n, workers, func(lo, hi int) float64 {
		maxDelta := 0.0
		for j := lo; j < hi; j++ {
			if exit[j] == 0 {
				next[j] = cur[j]
				continue
			}
			sum := 0.0
			plo, phi := tin.rowOff[j], tin.rowOff[j+1]
			for p := plo; p < phi; p++ {
				sum += cur[tin.col[p]] * tin.val[p]
			}
			next[j] = 0.5*cur[j] + 0.5*sum/exit[j]
			if d := math.Abs(next[j] - cur[j]); d > maxDelta {
				maxDelta = d
			}
		}
		return maxDelta
	})
}

// HittingSweepJacobi performs one damped Jacobi sweep of the linear
// system h[s] = (b[s] + sum_d rate(s->d)*h[d]) / diag[s] over the
// outgoing matrix m: next[s] is computed from cur only, rows
// chunk-sharded across workers. Rows with skip[s] hold a boundary value
// and copy through. Returns the max-norm delta.
func HittingSweepJacobi(m *Matrix, skip []bool, b, diag, cur, next []float64, workers int) float64 {
	return rowChunks(m.n, workers, func(lo, hi int) float64 {
		maxDelta := 0.0
		for s := lo; s < hi; s++ {
			if skip[s] {
				next[s] = cur[s]
				continue
			}
			sum := b[s]
			plo, phi := m.rowOff[s], m.rowOff[s+1]
			for p := plo; p < phi; p++ {
				sum += m.val[p] * cur[m.col[p]]
			}
			next[s] = 0.5*cur[s] + 0.5*sum/diag[s]
			if d := math.Abs(next[s] - cur[s]); d > maxDelta {
				maxDelta = d
			}
		}
		return maxDelta
	})
}
