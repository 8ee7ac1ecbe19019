package bisim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"multival/internal/lts"
)

// TestQuickParallelMatchesSequential asserts the parallel signature
// refinement produces exactly the same partition (same block ids) as the
// sequential reference, for every relation and several worker counts.
func TestQuickParallelMatchesSequential(t *testing.T) {
	for _, r := range []Relation{Strong, Branching, DivBranching} {
		r := r
		t.Run(r.String(), func(t *testing.T) {
			prop := func(rl randLTS) bool {
				want := PartitionSeq(rl.L, r)
				for _, workers := range []int{1, 2, 4, 7} {
					got := partitionOpt(rl.L, r, Options{Workers: workers})
					if len(got) != len(want) {
						return false
					}
					for i := range got {
						if got[i] != want[i] {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(prop, cfg()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestParallelSmallChunkDifferential forces the true multi-worker path on
// moderate LTSs by shrinking the work-stealing chunk size, so worker
// scratch is genuinely shared across chunks and rounds (regression test
// for stale visit stamps surviving between refinement rounds).
func TestParallelSmallChunkDifferential(t *testing.T) {
	saved := parallelChunk
	parallelChunk = 8
	defer func() { parallelChunk = saved }()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		l := lts.Random(rng, lts.RandomConfig{
			States:  300 + rng.Intn(700),
			Labels:  4,
			Density: 3,
			TauProb: 0.35,
			Connect: true,
		})
		for _, r := range []Relation{Strong, Branching, DivBranching} {
			want := PartitionSeq(l, r)
			got := partitionOpt(l, r, Options{Workers: 8})
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d %v: state %d: block %d vs %d",
						trial, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelMultiRoundDifferential covers the default chunk size with
// LTSs large enough (> parallelChunk states) that chunks migrate between
// workers across rounds.
func TestParallelMultiRoundDifferential(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := lts.Random(rng, lts.RandomConfig{
			States:  5_000,
			Labels:  5,
			Density: 3,
			TauProb: 0.3,
			Connect: true,
		})
		for _, r := range []Relation{Strong, Branching, DivBranching} {
			want := PartitionSeq(l, r)
			got := partitionOpt(l, r, Options{Workers: 8})
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d %v: state %d: block %d vs %d",
						seed, r, i, got[i], want[i])
				}
			}
		}
	}
}

// TestParallelMatchesSequentialLarge is the acceptance check of the CSR
// engine at scale: on a generated LTS of >= 50k states, the parallel
// refinement must agree block-for-block with the sequential reference.
func TestParallelMatchesSequentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(20080310))
	l := lts.Random(rng, lts.RandomConfig{
		States:  50_000,
		Labels:  6,
		Density: 3,
		TauProb: 0.25,
		Connect: true,
	})
	for _, r := range []Relation{Strong, Branching} {
		want := PartitionSeq(l, r)
		got := partition(l, r)
		if len(got) != len(want) {
			t.Fatalf("%v: length mismatch", r)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%v: block of state %d differs: %d vs %d", r, i, got[i], want[i])
			}
		}
	}
}

// TestMinimizeParallelQuotientEquivalent sanity-checks that minimizing via
// the parallel engine yields an LTS bisimilar to the input.
func TestMinimizeParallelQuotientEquivalent(t *testing.T) {
	prop := func(rl randLTS) bool {
		for _, r := range []Relation{Strong, Branching} {
			q, _ := minimizeOpt(rl.L, r, Options{Workers: 4})
			if q.NumStates() == 0 {
				return rl.L.NumStates() == 0
			}
			if !equivalent(rl.L, q, r) {
				return false
			}
		}
		return true
	}
	cfg := cfg()
	cfg.MaxCount = 30
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
