package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randomMatrix builds a random n-state matrix with roughly density
// entries per row.
func randomMatrix(rng *rand.Rand, n, density int) *Matrix {
	var rows, cols []int32
	var vals []float64
	for i := 0; i < n; i++ {
		for e := 0; e < 1+rng.Intn(density); e++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			rows = append(rows, int32(i))
			cols = append(cols, int32(j))
			vals = append(vals, 0.1+rng.Float64()*3)
		}
	}
	return New(n, rows, cols, vals, nil)
}

func TestSubmatrixKeepsInsideEdges(t *testing.T) {
	// 0->1, 1->2, 2->0 triangle plus 1->3 leaving the subset {0,1,2}.
	m := New(4,
		[]int32{0, 1, 2, 1},
		[]int32{1, 2, 0, 3},
		[]float64{1, 2, 3, 4},
		nil)
	sub := m.Submatrix([]int{0, 1, 2})
	if sub.N() != 3 || sub.NNZ() != 3 {
		t.Fatalf("sub %dx%d nnz %d, want 3x3 nnz 3", sub.N(), sub.N(), sub.NNZ())
	}
	if got := sub.RowSum(1); got != 2 {
		t.Errorf("row 1 sum %g, want 2 (the 1->3 edge must be dropped)", got)
	}
	cols, vals := sub.Row(2)
	if len(cols) != 1 || cols[0] != 0 || vals[0] != 3 {
		t.Errorf("row 2 = %v %v, want [0] [3]", cols, vals)
	}
}

func TestSubmatrixUnsortedMembers(t *testing.T) {
	// Members listed out of order: rows must still come out sorted by
	// local column.
	m := New(3,
		[]int32{0, 0, 1, 2},
		[]int32{1, 2, 2, 1},
		[]float64{1, 2, 3, 4},
		nil)
	sub := m.Submatrix([]int{2, 0, 1}) // local: 2->0, 0->1, 1->2
	// Local row 1 (global 0) has edges to global 1 (local 2) and global
	// 2 (local 0): sorted local columns must be [0 2] with vals [2 1].
	cols, vals := sub.Row(1)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Fatalf("row 1 cols %v, want [0 2]", cols)
	}
	if vals[0] != 2 || vals[1] != 1 {
		t.Errorf("row 1 vals %v, want [2 1]", vals)
	}
}

func TestSubmatrixMapPathMatchesDense(t *testing.T) {
	// A small member set over a large matrix takes the map-backed
	// membership index; it must agree with the dense path entry for
	// entry (same members compacted out of a tiny matrix of equal
	// structure is covered above, so here compare against a hand check).
	rng := rand.New(rand.NewSource(21))
	m := randomMatrix(rng, 512, 4)
	members := []int{7, 100, 101, 300} // 4*16 < 512: map path
	sub := m.Submatrix(members)
	if sub.N() != len(members) {
		t.Fatalf("sub dimension %d, want %d", sub.N(), len(members))
	}
	for i, s := range members {
		cols, vals := m.Row(s)
		wantSum := 0.0
		for k, c := range cols {
			for _, t2 := range members {
				if int(c) == t2 {
					wantSum += vals[k]
				}
			}
		}
		if got := sub.RowSum(i); math.Abs(got-wantSum) > 1e-12 {
			t.Errorf("row %d sum %g, want %g", i, got, wantSum)
		}
	}
}

func TestStationarySweepJacobiMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomMatrix(rng, 200, 4)
	tin := m.Transpose()
	exit := make([]float64, m.N())
	for i := range exit {
		exit[i] = m.RowSum(i)
	}
	cur := make([]float64, m.N())
	for i := range cur {
		cur[i] = rng.Float64()
	}
	seq := append([]float64(nil), cur...)
	seqNext := make([]float64, m.N())
	parNext := make([]float64, m.N())
	dSeq := StationarySweepJacobi(tin, exit, seq, seqNext, 1)
	dPar := StationarySweepJacobi(tin, exit, cur, parNext, 4)
	if math.Abs(dSeq-dPar) > 1e-15 {
		t.Errorf("residuals differ: %g vs %g", dSeq, dPar)
	}
	for i := range seqNext {
		if seqNext[i] != parNext[i] {
			t.Fatalf("next[%d]: %g vs %g", i, seqNext[i], parNext[i])
		}
	}
}

func TestHittingSweepJacobiMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randomMatrix(rng, 150, 3)
	n := m.N()
	skip := make([]bool, n)
	b := make([]float64, n)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		skip[i] = rng.Intn(5) == 0
		b[i] = rng.Float64()
		diag[i] = m.RowSum(i) + 0.5
	}
	cur := make([]float64, n)
	for i := range cur {
		cur[i] = rng.Float64()
	}
	seqNext := make([]float64, n)
	parNext := make([]float64, n)
	dSeq := HittingSweepJacobi(m, skip, b, diag, cur, seqNext, 1)
	dPar := HittingSweepJacobi(m, skip, b, diag, cur, parNext, 8)
	if math.Abs(dSeq-dPar) > 1e-15 {
		t.Errorf("residuals differ: %g vs %g", dSeq, dPar)
	}
	for i := range seqNext {
		if seqNext[i] != parNext[i] {
			t.Fatalf("next[%d]: %g vs %g", i, seqNext[i], parNext[i])
		}
	}
}

func TestGaussSeidelSweepSolvesFixedPoint(t *testing.T) {
	// On a converged stationary vector another sweep must be a no-op.
	// Two-state chain: 0->1 rate 3, 1->0 rate 1; pi = (1/4, 3/4).
	m := New(2, []int32{0, 1}, []int32{1, 0}, []float64{3, 1}, nil)
	tin := m.Transpose()
	exit := []float64{3, 1}
	pi := []float64{0.25, 0.75}
	if d := StationarySweepGS(tin, exit, pi); d > 1e-15 {
		t.Errorf("sweep moved a stationary vector by %g", d)
	}
}

// TestAddApplyMatchesAddApplyT checks the scatter AddApplyT against the
// per-row gather y[i] += scale * Σ_j Mᵀ[i,j] x[j] over the transpose.
func TestAddApplyMatchesAddApplyT(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomMatrix(rng, 120, 4)
	x := make([]float64, m.N())
	for i := range x {
		x[i] = rng.Float64()
	}
	yT := make([]float64, m.N())
	m.AddApplyT(x, yT, 0.7)
	tr := m.Transpose()
	for i := range yT {
		cols, vals := tr.Row(i)
		sum := 0.0
		for p, j := range cols {
			sum += vals[p] * x[j]
		}
		if y := 0.7 * sum; math.Abs(y-yT[i]) > 1e-12 {
			t.Fatalf("y[%d] = %g, want %g", i, yT[i], y)
		}
	}
}
