package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func buildRandom(rng *rand.Rand, n, nnz int) (*Matrix, []int32, []int32, []float64) {
	rows := make([]int32, nnz)
	cols := make([]int32, nnz)
	vals := make([]float64, nnz)
	tags := make([]int32, nnz)
	for i := range rows {
		rows[i] = int32(rng.Intn(n))
		cols[i] = int32(rng.Intn(n))
		vals[i] = rng.Float64() + 0.01
		tags[i] = int32(i)
	}
	return New(n, rows, cols, vals, tags), rows, cols, vals
}

func TestMatrixRowsSortedAndSumsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, rows, _, vals := buildRandom(rng, 50, 400)
	if m.NNZ() != 400 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	wantSum := make([]float64, 50)
	for i := range rows {
		wantSum[rows[i]] += vals[i]
	}
	total := 0
	for i := 0; i < m.N(); i++ {
		cols, rvals := m.Row(i)
		total += len(cols)
		for j := 1; j < len(cols); j++ {
			if cols[j] < cols[j-1] {
				t.Fatalf("row %d not sorted", i)
			}
		}
		sum := 0.0
		for _, v := range rvals {
			sum += v
		}
		if math.Abs(sum-m.RowSum(i)) > 1e-12 || math.Abs(sum-wantSum[i]) > 1e-12 {
			t.Fatalf("row %d sum mismatch: %g vs %g vs %g", i, sum, m.RowSum(i), wantSum[i])
		}
		if m.RowLen(i) != len(cols) {
			t.Fatalf("row %d RowLen mismatch", i)
		}
	}
	if total != 400 {
		t.Fatalf("entries lost: %d", total)
	}
}

func TestTagsFollowPermutation(t *testing.T) {
	m := New(3,
		[]int32{2, 0, 0, 1},
		[]int32{1, 2, 0, 1},
		[]float64{4, 2, 1, 3},
		[]int32{40, 20, 10, 30})
	cols, vals := m.Row(0)
	tags := m.RowTags(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Fatalf("row 0 cols = %v", cols)
	}
	if vals[0] != 1 || vals[1] != 2 || tags[0] != 10 || tags[1] != 20 {
		t.Fatalf("row 0 vals/tags mispermuted: %v %v", vals, tags)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, _, _, _ := buildRandom(rng, 30, 200)
	tt := m.Transpose().Transpose()
	if tt.NNZ() != m.NNZ() {
		t.Fatalf("NNZ changed: %d vs %d", tt.NNZ(), m.NNZ())
	}
	for i := 0; i < m.N(); i++ {
		c1, v1 := m.Row(i)
		c2, v2 := tt.Row(i)
		if len(c1) != len(c2) {
			t.Fatalf("row %d length changed", i)
		}
		for j := range c1 {
			if c1[j] != c2[j] || v1[j] != v2[j] {
				t.Fatalf("row %d entry %d changed", i, j)
			}
		}
	}
}

func TestAddApplyTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 20
	m, rows, cols, vals := buildRandom(rng, n, 80)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := make([]float64, n)
	for i := range rows {
		want[cols[i]] += 0.5 * x[rows[i]] * vals[i]
	}
	got := make([]float64, n)
	m.AddApplyT(x, got, 0.5)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestBottomSCCs(t *testing.T) {
	// 0 -> 1 <-> 2 (bottom), 3 isolated (bottom), 0 -> 3.
	m := New(4,
		[]int32{0, 1, 2, 0},
		[]int32{1, 2, 1, 3},
		[]float64{1, 1, 1, 1},
		nil)
	got := m.BottomSCCs()
	if len(got) != 2 {
		t.Fatalf("got %d bottom SCCs: %v", len(got), got)
	}
	seen := map[int]bool{}
	for _, comp := range got {
		for _, s := range comp {
			seen[s] = true
		}
	}
	if !seen[1] || !seen[2] || !seen[3] || seen[0] {
		t.Fatalf("unexpected membership: %v", got)
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := New(3, nil, nil, nil, nil)
	if m.NNZ() != 0 || m.RowSum(0) != 0 || m.RowSum(2) != 0 {
		t.Fatal("empty matrix not empty")
	}
	if got := m.BottomSCCs(); len(got) != 3 {
		t.Fatalf("expected 3 singleton bottom SCCs, got %v", got)
	}
}
