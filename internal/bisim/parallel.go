package bisim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"multival/internal/engine"
	"multival/internal/lts"
	"multival/internal/scc"
)

// Options tunes the partition-refinement engine.
type Options struct {
	// Workers is the number of goroutines hashing state signatures per
	// refinement round. Zero or negative selects GOMAXPROCS.
	Workers int
	// Progress, when non-nil, observes each refinement round (stage
	// "refine": states, round number, current block count).
	Progress engine.ProgressFunc
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallelChunk is the number of states a worker claims at a time. Small
// enough to balance skewed out-degrees, large enough to amortize the
// atomic increment. A variable so differential tests can shrink it to
// force the multi-worker path on small inputs.
var parallelChunk = 1024

// parallelStates runs body over [0,n) split into chunks claimed from a
// shared atomic cursor by `workers` goroutines. body receives the worker
// index (for per-worker scratch) and a half-open state range.
func parallelStates(n, workers int, body func(worker, lo, hi int)) {
	if workers <= 1 || n <= parallelChunk {
		body(0, 0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(parallelChunk))) - parallelChunk
				if lo >= n {
					return
				}
				hi := lo + parallelChunk
				if hi > n {
					hi = n
				}
				body(worker, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// PartitionCtx computes the coarsest stable partition of an LTS for r
// (Strong, Branching or DivBranching) using signature-based refinement
// (Blom & Orzan) over the LTS's label-sorted CSR rows. The result maps each state
// to a dense block index, assigned in order of first occurrence by
// ascending state number. Every round the per-state signatures are
// computed by a worker pool in parallel shards, then block ids are
// assigned in a deterministic sequential sweep, so the result is identical
// to the sequential reference (PartitionSeq) regardless of the worker
// count. The refinement loop checks ctx at every round boundary and
// returns ctx.Err() (wrapped) when the context is done, so a deadline or
// cancel aborts refinement within one round. opt.Progress observes each
// round.
func PartitionCtx(ctx context.Context, l *lts.LTS, r Relation, opt Options) ([]int, error) {
	switch r {
	case Strong, Branching, DivBranching:
	default:
		panic("bisim: Partition requires Strong, Branching or DivBranching")
	}
	n := l.NumStates()
	block := make([]int, n)
	if n == 0 {
		return block, nil
	}
	numBlocks := 1
	tau := l.LookupLabel(lts.Tau)
	workers := opt.workers()

	sigs := make([]string, n)
	// Strong signatures never run the inert-tau DFS, so skip the
	// workers x n visited arrays for that relation.
	scratch := newSigScratch(workers, n, r != Strong)

	for round := 0; ; round++ {
		if err := engine.Canceled(ctx); err != nil {
			return nil, fmt.Errorf("bisim: refinement canceled at round %d (%d blocks): %w", round, numBlocks, err)
		}
		opt.Progress.Report(engine.Progress{Stage: "refine", States: n, Round: round, Blocks: numBlocks})
		switch r {
		case Strong:
			parallelStates(n, workers, func(w, lo, hi int) {
				strongShard(l, block, sigs, scratch[w], lo, hi)
			})
		case Branching, DivBranching:
			var div []bool
			if r == DivBranching {
				div = divergent(l, block, tau)
			}
			// Stamps are qualified by the round so scratch can be
			// reused across rounds without clearing: a stamp left by a
			// previous round can never collide with this round's.
			stampBase := int64(round) * int64(n)
			parallelStates(n, workers, func(w, lo, hi int) {
				branchingShard(l, block, tau, div, sigs, scratch[w], stampBase, lo, hi)
			})
		}

		// Deterministic sequential assignment: ids in order of first
		// occurrence by ascending state number, exactly as PartitionSeq.
		newBlock := make([]int, n)
		index := make(map[string]int, numBlocks*2)
		next := 0
		for s := 0; s < n; s++ {
			key := blockKey(block[s], sigs[s])
			id, ok := index[key]
			if !ok {
				id = next
				next++
				index[key] = id
			}
			newBlock[s] = id
		}
		if next == numBlocks {
			return newBlock, nil
		}
		block = newBlock
		numBlocks = next
	}
}

// sigScratch is per-worker reusable state for signature computation. The
// visited array holds round-qualified stamps (round*n + state), so it
// never needs clearing between rounds or states.
type sigScratch struct {
	pairs   [][2]int
	visited []int64 // visit stamps for the inert-tau DFS
	stack   []int32
}

func newSigScratch(workers, n int, withVisited bool) []*sigScratch {
	out := make([]*sigScratch, workers)
	for i := range out {
		out[i] = &sigScratch{}
		if withVisited {
			out[i].visited = make([]int64, n)
			for j := range out[i].visited {
				out[i].visited[j] = -1
			}
		}
	}
	return out
}

// strongShard fills sigs[lo:hi] with the canonical encoding of the
// (label, block[dst]) pairs of each state's Out row.
func strongShard(l *lts.LTS, block []int, sigs []string, sc *sigScratch, lo, hi int) {
	for s := lo; s < hi; s++ {
		labs, dsts := l.Out(lts.State(s))
		sc.pairs = sc.pairs[:0]
		for i := range labs {
			sc.pairs = append(sc.pairs, [2]int{int(labs[i]), block[dsts[i]]})
		}
		sigs[s] = encodePairs(sc.pairs)
	}
}

// branchingShard fills sigs[lo:hi] with branching-bisimulation
// signatures: the (a, B) pairs reachable through inert tau steps, plus the
// divergence marker when div is non-nil and marks the state. stampBase
// must be round*NumStates so that stamps from earlier rounds are distinct
// from this round's.
func branchingShard(l *lts.LTS, block []int, tau int, div []bool, sigs []string, sc *sigScratch, stampBase int64, lo, hi int) {
	for s := lo; s < hi; s++ {
		stamp := stampBase + int64(s)
		sc.pairs = sc.pairs[:0]
		myBlock := block[s]
		sc.stack = append(sc.stack[:0], int32(s))
		sc.visited[s] = stamp
		for len(sc.stack) > 0 {
			u := sc.stack[len(sc.stack)-1]
			sc.stack = sc.stack[:len(sc.stack)-1]
			labs, dsts := l.Out(lts.State(u))
			for i := range labs {
				dst := dsts[i]
				if int(labs[i]) == tau && block[dst] == myBlock {
					if sc.visited[dst] != stamp {
						sc.visited[dst] = stamp
						sc.stack = append(sc.stack, dst)
					}
					continue
				}
				sc.pairs = append(sc.pairs, [2]int{int(labs[i]), block[dst]})
			}
		}
		if div != nil && div[s] {
			sc.pairs = append(sc.pairs, [2]int{-1, -1})
		}
		sigs[s] = encodePairs(sc.pairs)
	}
}

// divergent marks states with an infinite inert tau path: members of an
// inert tau cycle plus states reaching one through inert tau transitions
// (backward sweep over the In rows). Cycle detection runs
// on the shared iterative Tarjan engine (internal/scc) restricted to inert
// tau edges.
func divergent(l *lts.LTS, block []int, tau int) []bool {
	n := l.NumStates()
	div := make([]bool, n)
	if tau < 0 {
		return div
	}

	// Inert tau successors: the label-sorted CSR row filtered to
	// same-block destinations. The common all-inert case returns the
	// aliased row without copying.
	inertSucc := func(s int32) []int32 {
		all := l.Succ(lts.State(s), tau)
		myBlock := block[s]
		for i, d := range all {
			if block[d] != myBlock {
				kept := append([]int32(nil), all[:i]...)
				for _, d := range all[i+1:] {
					if block[d] == myBlock {
						kept = append(kept, d)
					}
				}
				return kept
			}
		}
		return all
	}

	comps, _ := scc.Strong(n, inertSucc)
	var worklist []int32 // divergent states pending backward propagation
	for _, comp := range comps {
		// A component is cyclic when it has more than one member or a
		// member with an inert tau self-loop.
		cyclic := len(comp) > 1
		if !cyclic {
			for _, d := range inertSucc(comp[0]) {
				if d == comp[0] {
					cyclic = true
					break
				}
			}
		}
		if cyclic {
			for _, w := range comp {
				div[w] = true
				worklist = append(worklist, w)
			}
		}
	}

	// Backward propagation through inert tau edges via the In rows.
	for len(worklist) > 0 {
		s := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		labs, srcs := l.In(lts.State(s))
		lo := sort.Search(len(labs), func(i int) bool { return labs[i] >= int32(tau) })
		for i := lo; i < len(labs) && labs[i] == int32(tau); i++ {
			src := srcs[i]
			if !div[src] && block[src] == block[s] {
				div[src] = true
				worklist = append(worklist, src)
			}
		}
	}
	return div
}
