package main

import (
	"sort"

	"multival/internal/lts"
)

// The oracle re-derives the verdicts of the seeded property queries by
// plain graph search on the generated LTS, independently of the mcl
// fixpoint evaluator, so a wrong verdict counts as a failure. It runs
// outside the timed section.

type graph struct {
	n      int
	init   int
	out    [][][2]int // out[s] = (label, dst)
	in     [][]int    // in[s] = sources of incoming transitions (with multiplicity)
	labels []string
}

func graphOf(l *lts.LTS) *graph {
	g := &graph{n: l.NumStates(), init: int(l.Initial()), labels: l.Labels()}
	g.out = make([][][2]int, g.n)
	g.in = make([][]int, g.n)
	l.EachTransition(func(t lts.Transition) {
		g.out[t.Src] = append(g.out[t.Src], [2]int{t.Label, int(t.Dst)})
		g.in[t.Dst] = append(g.in[t.Dst], int(t.Src))
	})
	return g
}

func (g *graph) label(name string) int {
	for i, l := range g.labels {
		if l == name {
			return i
		}
	}
	return -1
}

// reachableStates marks the states reachable from the initial one.
func (g *graph) reachableStates() []bool {
	seen := make([]bool, g.n)
	if g.n == 0 {
		return seen
	}
	stack := []int{g.init}
	seen[g.init] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[s] {
			if !seen[e[1]] {
				seen[e[1]] = true
				stack = append(stack, e[1])
			}
		}
	}
	return seen
}

// reachableAction: a transition labelled name is reachable.
func (g *graph) reachableAction(name string) bool {
	lab := g.label(name)
	reach := g.reachableStates()
	for s := 0; s < g.n; s++ {
		if !reach[s] {
			continue
		}
		for _, e := range g.out[s] {
			if e[0] == lab {
				return true
			}
		}
	}
	return false
}

// inevitable returns, per state, whether every maximal path from it
// reaches a state offering a transition labelled name (a deadlock that
// does not offer it falsifies the property).
func (g *graph) inevitable(name string) []bool {
	lab := g.label(name)
	sat := make([]bool, g.n)
	pending := make([]int, g.n)
	var work []int
	for s := 0; s < g.n; s++ {
		pending[s] = len(g.out[s])
		for _, e := range g.out[s] {
			if e[0] == lab {
				sat[s] = true
				work = append(work, s)
				break
			}
		}
	}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range g.in[s] {
			pending[p]--
			if !sat[p] && pending[p] == 0 {
				sat[p] = true
				work = append(work, p)
			}
		}
	}
	return sat
}

// response: every reachable trig transition leads to a state from which
// resp is inevitable.
func (g *graph) response(trig, resp string) bool {
	t := g.label(trig)
	inev := g.inevitable(resp)
	reach := g.reachableStates()
	for s := 0; s < g.n; s++ {
		if !reach[s] {
			continue
		}
		for _, e := range g.out[s] {
			if e[0] == t && !inev[e[1]] {
				return false
			}
		}
	}
	return true
}

// visibleLabels returns the LTS's visible labels, sorted.
func visibleLabels(l *lts.LTS) []string {
	var out []string
	for _, lab := range l.Labels() {
		if lab != lts.Tau {
			out = append(out, lab)
		}
	}
	sort.Strings(out)
	return out
}
