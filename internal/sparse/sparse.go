// Package sparse provides the shared compressed-sparse-row (CSR) rate
// matrix used by both stochastic layers of the Multival flow: package imc
// (stochastic lumping, delay decoration, CTMC extraction) and package
// markov (steady-state / transient solvers, expected first-passage times).
// Before this package each layer kept its own triplet-plus-adjacency
// storage; now a rate matrix is built once from triplets and read by every
// solver, and graph analyses (bottom strongly connected components) live
// next to the storage they scan.
//
// kernels.go adds the flat sweep kernels of the iterative solvers:
// per-BSCC submatrix compaction, Gauss–Seidel and parallel damped-Jacobi
// sweeps for the stationary equations, damped-Jacobi sweeps for the
// hitting equations, and the row-sharded matrix-vector product. The solvers in
// internal/markov drive the iteration; the kernels own the inner loops.
package sparse

import (
	"sort"

	"multival/internal/scc"
)

// Matrix is an immutable CSR matrix of positive rates over a square state
// space. Duplicate entries are preserved (not combined), so a matrix is a
// faithful multiset of transitions; row sums therefore equal total exit
// rates. Rows are sorted by column.
type Matrix struct {
	n      int
	rowOff []int32
	col    []int32
	val    []float64
	tag    []int32 // optional caller payload per entry (nil when untagged)
	rowSum []float64
}

// New builds a CSR matrix with n rows/columns from parallel triplet slices.
// tags may be nil; when present it carries one caller-defined payload per
// entry (e.g. an index into a transition table) through the CSR permutation.
func New(n int, rows, cols []int32, vals []float64, tags []int32) *Matrix {
	nnz := len(rows)
	if nnz > 1<<31-1 {
		panic("sparse: entry count overflows the CSR index type")
	}
	m := &Matrix{
		n:      n,
		rowOff: make([]int32, n+1),
		col:    make([]int32, nnz),
		val:    make([]float64, nnz),
		rowSum: make([]float64, n),
	}
	if tags != nil {
		m.tag = make([]int32, nnz)
	}
	for _, r := range rows {
		m.rowOff[r+1]++
	}
	for i := 0; i < n; i++ {
		m.rowOff[i+1] += m.rowOff[i]
	}
	pos := append([]int32(nil), m.rowOff[:n]...)
	for i := range rows {
		p := pos[rows[i]]
		m.col[p] = cols[i]
		m.val[p] = vals[i]
		if tags != nil {
			m.tag[p] = tags[i]
		}
		pos[rows[i]]++
		m.rowSum[rows[i]] += vals[i]
	}
	for i := 0; i < n; i++ {
		lo, hi := m.rowOff[i], m.rowOff[i+1]
		if hi-lo < 2 {
			continue
		}
		m.sortRow(int(lo), int(hi))
	}
	return m
}

func (m *Matrix) sortRow(lo, hi int) {
	row := matrixRow{m: m, lo: lo, n: hi - lo}
	sort.Stable(row)
}

type matrixRow struct {
	m     *Matrix
	lo, n int
}

func (r matrixRow) Len() int { return r.n }
func (r matrixRow) Less(i, j int) bool {
	return r.m.col[r.lo+i] < r.m.col[r.lo+j]
}
func (r matrixRow) Swap(i, j int) {
	i, j = r.lo+i, r.lo+j
	r.m.col[i], r.m.col[j] = r.m.col[j], r.m.col[i]
	r.m.val[i], r.m.val[j] = r.m.val[j], r.m.val[i]
	if r.m.tag != nil {
		r.m.tag[i], r.m.tag[j] = r.m.tag[j], r.m.tag[i]
	}
}

// N returns the dimension of the matrix.
func (m *Matrix) N() int { return m.n }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.col) }

// Row returns the columns and values of row i, sorted by column. The
// slices alias the matrix storage and must not be modified.
func (m *Matrix) Row(i int) (cols []int32, vals []float64) {
	lo, hi := m.rowOff[i], m.rowOff[i+1]
	return m.col[lo:hi], m.val[lo:hi]
}

// RowTags returns the tags of row i in the same order as Row, or nil when
// the matrix is untagged.
func (m *Matrix) RowTags(i int) []int32 {
	if m.tag == nil {
		return nil
	}
	lo, hi := m.rowOff[i], m.rowOff[i+1]
	return m.tag[lo:hi]
}

// RowLen returns the number of entries in row i.
func (m *Matrix) RowLen(i int) int { return int(m.rowOff[i+1] - m.rowOff[i]) }

// RowSum returns the sum of row i (the exit rate of state i).
func (m *Matrix) RowSum(i int) float64 { return m.rowSum[i] }

// Transpose returns the transposed matrix (incoming adjacency). Tags are
// carried through. The transpose is built by a direct counting-sort
// scatter: scanning source rows in ascending order makes every transposed
// row's columns arrive already sorted, so no per-row sort or intermediate
// triplet storage is needed.
func (m *Matrix) Transpose() *Matrix {
	nnz := len(m.col)
	t := &Matrix{
		n:      m.n,
		rowOff: make([]int32, m.n+1),
		col:    make([]int32, nnz),
		val:    make([]float64, nnz),
		rowSum: make([]float64, m.n),
	}
	if m.tag != nil {
		t.tag = make([]int32, nnz)
	}
	for _, c := range m.col {
		t.rowOff[c+1]++
	}
	for i := 0; i < m.n; i++ {
		t.rowOff[i+1] += t.rowOff[i]
	}
	pos := append([]int32(nil), t.rowOff[:m.n]...)
	for i := 0; i < m.n; i++ {
		lo, hi := m.rowOff[i], m.rowOff[i+1]
		for p := lo; p < hi; p++ {
			c := m.col[p]
			q := pos[c]
			t.col[q] = int32(i)
			t.val[q] = m.val[p]
			if t.tag != nil {
				t.tag[q] = m.tag[p]
			}
			pos[c]++
			t.rowSum[c] += m.val[p]
		}
	}
	return t
}

// AddApplyT accumulates y += scale * xᵀM, i.e. for every entry (i,j,v):
// y[j] += scale * x[i] * v. This is the vector-matrix product at the heart
// of uniformization (transient analysis) and power-style iterations.
func (m *Matrix) AddApplyT(x, y []float64, scale float64) {
	for i := 0; i < m.n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		lo, hi := m.rowOff[i], m.rowOff[i+1]
		for p := lo; p < hi; p++ {
			y[m.col[p]] += scale * xi * m.val[p]
		}
	}
}

// SCCs returns the strongly connected components of the matrix viewed as
// a directed graph (an edge per stored entry), straight from the shared
// iterative Tarjan engine (internal/scc) iterating over CSR rows:
// components in reverse topological order (every edge leaving a
// component points into a component returned earlier), members ascending,
// compOf mapping every state to its component index. The block-sweep
// solvers process this order directly — a component's successors are
// always solved before the component itself.
func (m *Matrix) SCCs() (comps [][]int32, compOf []int32) {
	return scc.Strong(m.n, func(s int32) []int32 {
		return m.col[m.rowOff[s]:m.rowOff[s+1]]
	})
}

// BottomSCCs returns the bottom strongly connected components of the
// matrix viewed as a directed graph (an edge per stored entry): the SCCs
// with no entry leaving the component. Each component lists its states in
// ascending order.
func (m *Matrix) BottomSCCs() [][]int {
	comps, compOf := m.SCCs()
	return m.BottomsOf(comps, compOf)
}

// BottomsOf filters an SCCs() decomposition of this matrix down to its
// bottom components (widened to []int members), preserving the SCCs()
// component order. Callers that need both the full decomposition and the
// bottoms — the block-sweep solvers — avoid running Tarjan twice.
func (m *Matrix) BottomsOf(comps [][]int32, compOf []int32) [][]int {
	var bottom [][]int
	for id, members := range comps {
		isBottom := true
	scan:
		for _, s := range members {
			lo, hi := m.rowOff[s], m.rowOff[s+1]
			for p := lo; p < hi; p++ {
				if compOf[m.col[p]] != int32(id) {
					isBottom = false
					break scan
				}
			}
		}
		if isBottom {
			out := make([]int, len(members))
			for i, s := range members {
				out[i] = int(s)
			}
			bottom = append(bottom, out)
		}
	}
	return bottom
}
