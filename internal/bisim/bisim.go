// Package bisim implements equivalence checking and minimization of
// labeled transition systems modulo behavioural equivalences, mirroring the
// role of BCG_MIN and BISIMULATOR in the CADP toolbox used by the Multival
// project.
//
// The implementation uses signature-based partition refinement (Blom &
// Orzan): states are repeatedly split according to a signature computed
// from the current partition until a fixpoint is reached. Supported
// relations:
//
//   - Strong bisimulation
//   - Branching bisimulation (inert tau steps are abstracted)
//   - Divergence-preserving branching bisimulation
//   - (Weak) trace equivalence, via determinization
package bisim

import (
	"encoding/binary"
	"sort"

	"multival/internal/lts"
)

// Relation selects a behavioural equivalence.
type Relation int

const (
	// Strong bisimulation: every transition must be matched exactly.
	Strong Relation = iota
	// Branching bisimulation: inert (same-class) tau steps are ignored.
	Branching
	// DivBranching is branching bisimulation preserving divergence
	// (tau cycles).
	DivBranching
	// Trace equivalence: equality of visible trace sets (weak traces).
	Trace
)

// String returns the conventional name of the relation.
func (r Relation) String() string {
	switch r {
	case Strong:
		return "strong"
	case Branching:
		return "branching"
	case DivBranching:
		return "divbranching"
	case Trace:
		return "trace"
	default:
		return "unknown"
	}
}

// PartitionSeq is the sequential reference implementation of
// PartitionCtx, kept for differential testing and benchmarking. It
// produces exactly the same block assignment as the parallel engine.
func PartitionSeq(l *lts.LTS, r Relation) []int {
	switch r {
	case Strong, Branching, DivBranching:
	default:
		panic("bisim: Partition requires Strong, Branching or DivBranching")
	}
	n := l.NumStates()
	block := make([]int, n) // initial partition: one block
	if n == 0 {
		return block
	}
	numBlocks := 1
	tau := l.LookupLabel(lts.Tau)

	for {
		var sigs []string
		switch r {
		case Strong:
			sigs = strongSignatures(l, block)
		case Branching:
			sigs = branchingSignatures(l, block, tau, false)
		case DivBranching:
			sigs = branchingSignatures(l, block, tau, true)
		}
		newBlock := make([]int, n)
		index := make(map[string]int, numBlocks*2)
		next := 0
		for s := 0; s < n; s++ {
			// The old block id is part of the key so refinement only
			// ever splits blocks, never merges them.
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
			return newBlock
		}
		block = newBlock
		numBlocks = next
	}
}

func blockKey(oldBlock int, sig string) string {
	var buf [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(buf[:], uint64(oldBlock))
	return string(buf[:k]) + "\x00" + sig
}

// strongSignatures computes, for every state, the sorted set of
// (label, block[dst]) pairs over its outgoing transitions.
func strongSignatures(l *lts.LTS, block []int) []string {
	n := l.NumStates()
	sigs := make([]string, n)
	var pairs [][2]int
	for s := 0; s < n; s++ {
		pairs = pairs[:0]
		l.EachOutgoing(lts.State(s), func(t lts.Transition) {
			pairs = append(pairs, [2]int{t.Label, block[t.Dst]})
		})
		sigs[s] = encodePairs(pairs)
	}
	return sigs
}

// branchingSignatures computes branching-bisimulation signatures: the pairs
// (a, B) such that s can reach, via inert tau steps (tau transitions whose
// endpoints are in the same block as s), a state with an outgoing non-inert
// transition labeled a into block B. When divergence is true, states that
// can reach an inert tau cycle additionally carry a divergence marker.
func branchingSignatures(l *lts.LTS, block []int, tau int, divergence bool) []string {
	n := l.NumStates()
	sigs := make([]string, n)

	var div []bool
	if divergence {
		div = divergentStates(l, block, tau)
	}

	visited := make([]int, n) // visit stamps, avoids clearing
	for i := range visited {
		visited[i] = -1
	}
	var stack []lts.State
	var pairs [][2]int

	for s := 0; s < n; s++ {
		pairs = pairs[:0]
		myBlock := block[s]
		stack = stack[:0]
		stack = append(stack, lts.State(s))
		visited[s] = s
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			l.EachOutgoing(u, func(t lts.Transition) {
				inert := t.Label == tau && block[t.Dst] == myBlock
				if inert {
					if visited[t.Dst] != s {
						visited[t.Dst] = s
						stack = append(stack, t.Dst)
					}
					return
				}
				pairs = append(pairs, [2]int{t.Label, block[t.Dst]})
			})
		}
		if divergence && div[s] {
			// Reserved marker pair that cannot collide with a real label.
			pairs = append(pairs, [2]int{-1, -1})
		}
		sigs[s] = encodePairs(pairs)
	}
	return sigs
}

// divergentStates marks states from which an infinite inert tau path
// exists: states inside an inert tau cycle, and states reaching such a
// cycle through inert tau transitions.
func divergentStates(l *lts.LTS, block []int, tau int) []bool {
	n := l.NumStates()
	div := make([]bool, n)
	if tau < 0 {
		return div
	}
	inert := func(t lts.Transition) bool {
		return t.Label == tau && block[t.Src] == block[t.Dst]
	}
	for _, comp := range l.StronglyConnectedComponents(inert) {
		cyclic := len(comp) > 1
		if !cyclic {
			s := comp[0]
			l.EachOutgoing(s, func(t lts.Transition) {
				if inert(t) && t.Dst == s {
					cyclic = true
				}
			})
		}
		if cyclic {
			for _, s := range comp {
				div[s] = true
			}
		}
	}
	// Backward propagation through inert tau edges to a fixpoint.
	changed := true
	for changed {
		changed = false
		l.EachTransition(func(t lts.Transition) {
			if inert(t) && div[t.Dst] && !div[t.Src] {
				div[t.Src] = true
				changed = true
			}
		})
	}
	return div
}

// encodePairs canonically encodes a multiset of (label, block) pairs as a
// string usable as a map key. Duplicates are removed.
func encodePairs(pairs [][2]int) string {
	if len(pairs) == 0 {
		return ""
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	buf := make([]byte, 0, len(pairs)*4)
	var tmp [binary.MaxVarintLen64]byte
	prev := [2]int{-2, -2}
	for _, p := range pairs {
		if p == prev {
			continue
		}
		prev = p
		k := binary.PutVarint(tmp[:], int64(p[0]))
		buf = append(buf, tmp[:k]...)
		k = binary.PutVarint(tmp[:], int64(p[1]))
		buf = append(buf, tmp[:k]...)
	}
	return string(buf)
}
