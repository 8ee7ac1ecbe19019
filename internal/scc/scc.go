// Package scc provides the single iterative Tarjan strongly-connected-
// components engine shared by every graph analysis of the flow. Before
// this package, three nearly identical iterative Tarjan implementations
// lived in lts (StronglyConnectedComponents), sparse (BottomSCCs) and
// bisim (divergence detection); they are all rebased on Strong, which is
// parameterized only by an edge iterator so it runs unchanged over
// filtered successor arrays, CSR matrix rows, and label-filtered LTS
// index rows.
package scc

import "sort"

// Strong computes the strongly connected components of a directed graph
// with n nodes. succ(s) must return the successors of node s; the slice is
// read once per node, is never modified, and may alias caller storage.
//
// Components are returned in reverse topological order — every edge
// leaving a component points into a component returned earlier — with the
// members of each component in ascending order. compOf maps every node to
// the index of its component in comps.
//
// The traversal is iterative (explicit call stack), so arbitrarily deep
// graphs do not overflow the goroutine stack.
func Strong(n int, succ func(s int32) []int32) (comps [][]int32, compOf []int32) {
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	compOf = make([]int32, n)
	for i := range index {
		index[i] = unvisited
		compOf[i] = -1
	}
	var (
		stack   []int32
		counter int32
	)
	type frame struct {
		s    int32
		edge int
		out  []int32
	}
	var callStack []frame

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{s: int32(root), out: succ(int32(root))})
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, int32(root))
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			advanced := false
			for f.edge < len(f.out) {
				w := f.out[f.edge]
				f.edge++
				if index[w] == unvisited {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{s: w, out: succ(w)})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[f.s] {
					low[f.s] = index[w]
				}
			}
			if advanced {
				continue
			}
			s := f.s
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if low[s] < low[p.s] {
					low[p.s] = low[s]
				}
			}
			if low[s] == index[s] {
				id := int32(len(comps))
				var comp []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					compOf[w] = id
					comp = append(comp, w)
					if w == s {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
				comps = append(comps, comp)
			}
		}
	}
	return comps, compOf
}
