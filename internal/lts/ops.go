package lts

import (
	"fmt"
	"sort"

	"multival/internal/scc"
)

// Reachable returns the set of states reachable from the initial state, as
// a boolean slice indexed by state.
func (l *LTS) Reachable() []bool {
	seen := make([]bool, l.numStates)
	if l.numStates == 0 {
		return seen
	}
	stack := []State{l.initial}
	seen[l.initial] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		l.EachOutgoing(s, func(t Transition) {
			if !seen[t.Dst] {
				seen[t.Dst] = true
				stack = append(stack, t.Dst)
			}
		})
	}
	return seen
}

// Trim returns a copy of the LTS restricted to states reachable from the
// initial state, renumbered densely in BFS order, together with the mapping
// old state -> new state (-1 for removed states). The BFS follows each
// state's transitions in insertion order, not in the label-id order of its
// Out row, so the numbering — and with it the content digest of a trimmed
// model — depends only on how the model was generated. Trimming in BFS
// order also canonicalizes state numbering for graphs produced
// deterministically.
func (l *LTS) Trim() (*LTS, []State) {
	mapping := make([]State, l.numStates)
	for i := range mapping {
		mapping[i] = -1
	}
	c := New(l.name)
	if l.numStates == 0 {
		return c, mapping
	}
	// Edge ids grouped by source, each group in insertion order.
	off := make([]int32, l.numStates+1)
	for _, s := range l.src {
		off[s+1]++
	}
	for s := 0; s < l.numStates; s++ {
		off[s+1] += off[s]
	}
	ids := make([]int32, len(l.src))
	next := append([]int32(nil), off[:l.numStates]...)
	for e, s := range l.src {
		ids[next[s]] = int32(e)
		next[s]++
	}

	queue := []State{l.initial}
	mapping[l.initial] = c.AddState()
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		for _, e := range ids[off[s]:off[s+1]] {
			if d := l.dst[e]; mapping[d] < 0 {
				mapping[d] = c.AddState()
				queue = append(queue, State(d))
			}
		}
	}
	for _, s := range queue {
		for _, e := range ids[off[s]:off[s+1]] {
			c.AddTransition(mapping[s], l.labels[l.lab[e]], mapping[l.dst[e]])
		}
	}
	c.SetInitial(mapping[l.initial])
	return c, mapping
}

// Hide returns a copy of the LTS in which every label for which pred
// returns true is replaced by the internal action Tau. The initial state is
// preserved.
func (l *LTS) Hide(pred func(label string) bool) *LTS {
	return l.Relabel(func(lab string) string {
		if lab != Tau && pred(lab) {
			return Tau
		}
		return lab
	})
}

// HideAll returns a copy with every visible label replaced by Tau.
func (l *LTS) HideAll() *LTS {
	return l.Hide(func(string) bool { return true })
}

// HideLabels returns a copy hiding exactly the given label strings.
func (l *LTS) HideLabels(labels ...string) *LTS {
	set := make(map[string]bool, len(labels))
	for _, lab := range labels {
		set[lab] = true
	}
	return l.Hide(func(lab string) bool { return set[lab] })
}

// Relabel returns a copy of the LTS with every label transformed by f.
func (l *LTS) Relabel(f func(label string) string) *LTS {
	c := New(l.name)
	c.AddStates(l.numStates)
	for i := range l.src {
		c.AddTransition(State(l.src[i]), f(l.labels[l.lab[i]]), State(l.dst[i]))
	}
	if l.numStates > 0 {
		c.SetInitial(l.initial)
	}
	return c
}

// VisibleLabels returns the sorted set of non-tau labels that occur on at
// least one transition.
func (l *LTS) VisibleLabels() []string {
	used := make([]bool, len(l.labels))
	for _, lab := range l.lab {
		used[lab] = true
	}
	var vis []string
	for id, ok := range used {
		if ok && l.labels[id] != Tau {
			vis = append(vis, l.labels[id])
		}
	}
	sort.Strings(vis)
	return vis
}

// TauClosure returns the set of states reachable from s by zero or more tau
// transitions, in ascending order.
func (l *LTS) TauClosure(s State) []State {
	tau, ok := l.labelIdx[Tau]
	if !ok {
		return []State{s}
	}
	seen := map[State]bool{s: true}
	stack := []State{s}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		l.EachOutgoing(cur, func(t Transition) {
			if t.Label == tau && !seen[t.Dst] {
				seen[t.Dst] = true
				stack = append(stack, t.Dst)
			}
		})
	}
	out := make([]State, 0, len(seen))
	for st := range seen {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Deterministic reports whether the LTS contains no tau transition and no
// state with two distinct successors under the same label.
func (l *LTS) Deterministic() bool {
	tau, hasTau := l.labelIdx[Tau]
	type key struct {
		s   State
		lab int
	}
	for s := 0; s < l.numStates; s++ {
		labs, dsts := l.Out(State(s))
		for i := range labs {
			if hasTau && int(labs[i]) == tau {
				return false
			}
			if i > 0 && labs[i] == labs[i-1] && dsts[i] != dsts[i-1] {
				return false
			}
		}
	}
	return true
}

// Determinize returns a deterministic LTS that is weak-trace equivalent to
// the input: states of the result are tau-closed subsets of input states
// (classic subset construction). Labels are preserved; the result contains
// no tau transitions. Beware: worst-case exponential.
func (l *LTS) Determinize() *LTS {
	d := New(l.name + ".det")
	if l.numStates == 0 {
		return d
	}
	tau := -1
	if id, ok := l.labelIdx[Tau]; ok {
		tau = id
	}

	encode := func(set []State) string {
		return fmt.Sprint(set)
	}
	closure := func(set []State) []State {
		var all []State
		for _, s := range set {
			all = append(all, l.TauClosure(s)...)
		}
		return dedupStates(all)
	}

	init := closure([]State{l.initial})
	index := map[string]State{encode(init): d.AddState()}
	queue := [][]State{init}
	d.SetInitial(0)
	for qi := 0; qi < len(queue); qi++ {
		set := queue[qi]
		src := index[encode(set)]
		// Group successors by label.
		byLabel := make(map[int][]State)
		for _, s := range set {
			l.EachOutgoing(s, func(t Transition) {
				if t.Label == tau {
					return
				}
				byLabel[t.Label] = append(byLabel[t.Label], t.Dst)
			})
		}
		labs := make([]int, 0, len(byLabel))
		for lab := range byLabel {
			labs = append(labs, lab)
		}
		sort.Ints(labs)
		for _, lab := range labs {
			next := closure(dedupStates(byLabel[lab]))
			k := encode(next)
			dst, ok := index[k]
			if !ok {
				dst = d.AddState()
				index[k] = dst
				queue = append(queue, next)
			}
			d.AddTransition(src, l.labels[lab], dst)
		}
	}
	return d
}

// StronglyConnectedComponents returns Tarjan SCCs restricted to transitions
// accepted by pred (pass nil to use all transitions). Components are
// returned in reverse topological order; each component lists its states in
// ascending order. The traversal runs on the shared iterative SCC engine
// (internal/scc) over a flat successor array built in one pass, so no
// per-state slices are allocated during the walk.
func (l *LTS) StronglyConnectedComponents(pred func(Transition) bool) [][]State {
	n := l.numStates
	// Filtered CSR adjacency: one counting pass, one fill pass.
	off := make([]int32, n+1)
	l.EachTransition(func(t Transition) {
		if pred == nil || pred(t) {
			off[t.Src+1]++
		}
	})
	for s := 0; s < n; s++ {
		off[s+1] += off[s]
	}
	dst := make([]int32, off[n])
	pos := append([]int32(nil), off[:n]...)
	l.EachTransition(func(t Transition) {
		if pred == nil || pred(t) {
			dst[pos[t.Src]] = int32(t.Dst)
			pos[t.Src]++
		}
	})
	comps32, _ := scc.Strong(n, func(s int32) []int32 {
		return dst[off[s]:off[s+1]]
	})
	comps := make([][]State, len(comps32))
	for i, c := range comps32 {
		comp := make([]State, len(c))
		for j, s := range c {
			comp[j] = State(s)
		}
		comps[i] = comp
	}
	return comps
}

// TauCycles reports whether the LTS contains a cycle of tau transitions
// (a divergence). Self tau-loops count.
func (l *LTS) TauCycles() bool {
	tau, ok := l.labelIdx[Tau]
	if !ok {
		return false
	}
	isTau := func(t Transition) bool { return t.Label == tau }
	for i := range l.src {
		if int(l.lab[i]) == tau && l.src[i] == l.dst[i] {
			return true
		}
	}
	for _, comp := range l.StronglyConnectedComponents(isTau) {
		if len(comp) > 1 {
			return true
		}
	}
	return false
}

// Isomorphic reports whether two LTSs are identical up to the BFS
// renumbering performed by Trim (a cheap structural equality useful in
// tests; it is stronger than bisimilarity).
func Isomorphic(a, b *LTS) bool {
	ta, _ := a.Trim()
	tb, _ := b.Trim()
	if ta.numStates != tb.numStates || len(ta.src) != len(tb.src) {
		return false
	}
	ka := canonicalEdgeList(ta)
	kb := canonicalEdgeList(tb)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func canonicalEdgeList(l *LTS) []string {
	edges := make([]string, 0, len(l.src))
	l.EachTransition(func(t Transition) {
		edges = append(edges, fmt.Sprintf("%d|%s|%d", t.Src, l.labels[t.Label], t.Dst))
	})
	sort.Strings(edges)
	return edges
}
