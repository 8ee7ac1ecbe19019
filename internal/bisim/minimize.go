package bisim

import (
	"context"
	"fmt"
	"sort"

	"multival/internal/lts"
)

// MinimizeCtx returns the quotient of l modulo the relation r, together
// with the mapping state -> block. The quotient has one state per block of
// the coarsest stable partition; for branching relations, inert tau
// transitions disappear (except divergence self-loops under DivBranching).
// For Trace, the LTS is determinized first and the result is the minimal
// deterministic LTS for the weak-trace language (with a nil block map).
//
// Refinement runs on the parallel engine configured by opt and checks ctx
// at every round boundary, returning ctx.Err() (wrapped) when the context
// is done.
func MinimizeCtx(ctx context.Context, l *lts.LTS, r Relation, opt Options) (*lts.LTS, []int, error) {
	if r == Trace {
		d := l.Determinize()
		q, _, err := MinimizeCtx(ctx, d, Strong, opt)
		if err != nil {
			return nil, nil, err
		}
		q.SetName(l.Name() + ".min")
		// The state->block map refers to determinized states, which is
		// not meaningful for callers in terms of original states.
		return q, nil, nil
	}
	block, err := PartitionCtx(ctx, l, r, opt)
	if err != nil {
		return nil, nil, err
	}
	q := quotient(l, block, r)
	q.SetName(l.Name() + ".min")
	return q, block, nil
}

// quotient builds the quotient LTS from a stable partition.
func quotient(l *lts.LTS, block []int, r Relation) *lts.LTS {
	q := lts.New(l.Name())
	n := l.NumStates()
	if n == 0 {
		return q
	}
	numBlocks := 0
	for _, b := range block {
		if b+1 > numBlocks {
			numBlocks = b + 1
		}
	}
	q.AddStates(numBlocks)
	q.SetInitial(lts.State(block[l.Initial()]))

	tau := l.LookupLabel(lts.Tau)
	type edge struct {
		src, lab, dst int
	}
	seen := make(map[edge]bool)

	switch r {
	case Strong:
		l.EachTransition(func(t lts.Transition) {
			e := edge{block[t.Src], t.Label, block[t.Dst]}
			if !seen[e] {
				seen[e] = true
				q.AddTransition(lts.State(e.src), l.LabelName(t.Label), lts.State(e.dst))
			}
		})
	case Branching, DivBranching:
		// Keep exactly the non-inert transitions (inert tau steps are
		// internal to a block and vanish in the quotient).
		l.EachTransition(func(t lts.Transition) {
			if t.Label == tau && block[t.Src] == block[t.Dst] {
				return
			}
			e := edge{block[t.Src], t.Label, block[t.Dst]}
			if !seen[e] {
				seen[e] = true
				q.AddTransition(lts.State(e.src), l.LabelName(t.Label), lts.State(e.dst))
			}
		})
		if r == DivBranching {
			div := divergent(l, block, tau)
			marked := make(map[int]bool)
			for s := 0; s < n; s++ {
				if div[s] && !marked[block[s]] {
					marked[block[s]] = true
					q.AddTransition(lts.State(block[s]), lts.Tau, lts.State(block[s]))
				}
			}
		}
	}
	trimmed, _ := q.Trim()
	return trimmed
}

// EquivalentCtx reports whether the initial states of a and b are related
// by r, observing ctx at every refinement round (see MinimizeCtx).
func EquivalentCtx(ctx context.Context, a, b *lts.LTS, r Relation, opt Options) (bool, error) {
	if r == Trace {
		da, db := a.Determinize(), b.Determinize()
		return EquivalentCtx(ctx, da, db, Strong, opt)
	}
	u, initA, initB := DisjointUnion(a, b)
	block, err := PartitionCtx(ctx, u, r, opt)
	if err != nil {
		return false, err
	}
	return block[initA] == block[initB], nil
}

// DisjointUnion places a and b side by side in a single LTS and returns it
// together with the images of both initial states. The union's initial
// state is the image of a's initial state.
func DisjointUnion(a, b *lts.LTS) (u *lts.LTS, initA, initB lts.State) {
	u = lts.New(fmt.Sprintf("union(%s,%s)", a.Name(), b.Name()))
	u.AddStates(a.NumStates() + b.NumStates())
	off := lts.State(a.NumStates())
	a.EachTransition(func(t lts.Transition) {
		u.AddTransition(t.Src, a.LabelName(t.Label), t.Dst)
	})
	b.EachTransition(func(t lts.Transition) {
		u.AddTransition(t.Src+off, b.LabelName(t.Label), t.Dst+off)
	})
	if a.NumStates() > 0 {
		u.SetInitial(a.Initial())
	}
	return u, a.Initial(), b.Initial() + off
}

// CompareResult reports the outcome of a CompareCtx call.
type CompareResult struct {
	Relation   Relation
	Equivalent bool
	// Counterexample is a distinguishing visible trace when the relation
	// is Trace (or when trace inequivalence already explains the
	// difference); nil otherwise or when equivalent.
	Counterexample []string
}

// CompareCtx checks equivalence and, when the LTSs differ, attempts to
// produce a distinguishing trace: a sequence of visible actions possible in
// exactly one of the two systems. A distinguishing trace always exists for
// Trace; for the bisimulations it exists only when the trace sets already
// differ (bisimulation is finer than trace equivalence), so it may be nil
// even for inequivalent systems. Refinement observes ctx at every round
// (see MinimizeCtx).
func CompareCtx(ctx context.Context, a, b *lts.LTS, r Relation, opt Options) (CompareResult, error) {
	eq, err := EquivalentCtx(ctx, a, b, r, opt)
	if err != nil {
		return CompareResult{}, err
	}
	res := CompareResult{Relation: r, Equivalent: eq}
	if !res.Equivalent {
		res.Counterexample = DistinguishingTrace(a, b)
	}
	return res, nil
}

// DistinguishingTrace returns a shortest visible trace accepted by exactly
// one of a, b, or nil if their weak-trace sets coincide. It runs a BFS over
// the synchronous product of the determinized systems.
func DistinguishingTrace(a, b *lts.LTS) []string {
	da, db := a.Determinize(), b.Determinize()

	type pair struct{ x, y int } // -1 encodes "no state" (trace left the system)
	type item struct {
		p     pair
		trace []string
	}
	start := pair{int(da.Initial()), int(db.Initial())}
	if da.NumStates() == 0 || db.NumStates() == 0 {
		// Degenerate; treat an empty LTS as having only the empty trace.
		return nil
	}
	seen := map[pair]bool{start: true}
	queue := []item{{p: start}}
	for qi := 0; qi < len(queue); qi++ {
		it := queue[qi]
		// Collect labels offered on either side.
		labels := map[string]bool{}
		if it.p.x >= 0 {
			da.EachOutgoing(lts.State(it.p.x), func(t lts.Transition) {
				labels[da.LabelName(t.Label)] = true
			})
		}
		if it.p.y >= 0 {
			db.EachOutgoing(lts.State(it.p.y), func(t lts.Transition) {
				labels[db.LabelName(t.Label)] = true
			})
		}
		sorted := make([]string, 0, len(labels))
		for lab := range labels {
			sorted = append(sorted, lab)
		}
		sort.Strings(sorted)
		for _, lab := range sorted {
			nx, ny := -1, -1
			if it.p.x >= 0 {
				if id := da.LookupLabel(lab); id >= 0 {
					if succ := da.Successors(lts.State(it.p.x), id); len(succ) == 1 {
						nx = int(succ[0])
					}
				}
			}
			if it.p.y >= 0 {
				if id := db.LookupLabel(lab); id >= 0 {
					if succ := db.Successors(lts.State(it.p.y), id); len(succ) == 1 {
						ny = int(succ[0])
					}
				}
			}
			trace := append(append([]string(nil), it.trace...), lab)
			if (nx < 0) != (ny < 0) {
				return trace
			}
			if nx < 0 && ny < 0 {
				continue
			}
			np := pair{nx, ny}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, item{np, trace})
			}
		}
	}
	return nil
}
