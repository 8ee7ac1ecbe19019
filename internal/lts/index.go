package lts

import (
	"sort"
	"sync/atomic"
)

// csr is one direction of the adjacency index in compressed sparse row
// form: row s spans lab/end[off[s]:off[s+1]], sorted by (label, end). In
// the out index end holds destinations, in the in index sources. The
// label-sorted rows let hot algorithms — signature refinement, on-the-fly
// products, predecessor walks — scan flat arrays and find all transitions
// of one label in a row by binary search. A csr is never written after
// it is published.
type csr struct {
	off, lab, end []int32
}

// newCSR indexes the edges from[i] --lab[i]--> to[i] by from, each row
// sorted by (label, to). Two stable counting sorts (by to, then by label)
// order the edges and a third pass places them in their rows, so the
// build is linear in states, labels and edges.
func newCSR(numStates, numLabels int, from, lab, to []int32) *csr {
	order := countingSort(numLabels, lab, countingSort(numStates, to, nil))
	c := &csr{
		off: make([]int32, numStates+1),
		lab: make([]int32, len(from)),
		end: make([]int32, len(from)),
	}
	for _, s := range from {
		c.off[s+1]++
	}
	for s := 0; s < numStates; s++ {
		c.off[s+1] += c.off[s]
	}
	next := append([]int32(nil), c.off[:numStates]...)
	for _, e := range order {
		s := from[e]
		c.lab[next[s]], c.end[next[s]] = lab[e], to[e]
		next[s]++
	}
	return c
}

// countingSort returns the edge ids of order stably sorted by key, whose
// values lie in [0,k). A nil order stands for all edges in id order.
func countingSort(k int, key, order []int32) []int32 {
	pos := make([]int32, k+1)
	for _, v := range key {
		pos[v+1]++
	}
	for v := 0; v < k; v++ {
		pos[v+1] += pos[v]
	}
	sorted := make([]int32, len(key))
	if order == nil {
		for e, v := range key {
			sorted[pos[v]] = int32(e)
			pos[v]++
		}
		return sorted
	}
	for _, e := range order {
		v := key[e]
		sorted[pos[v]] = e
		pos[v]++
	}
	return sorted
}

func (l *LTS) outIndex() *csr { return l.index(&l.out, l.src, l.dst) }

func (l *LTS) inIndex() *csr { return l.index(&l.in, l.dst, l.src) }

// index returns *p, first building it from the edges from --lab--> to when
// it is unset. Concurrent first readers build it once: the mutex orders
// the build and the atomic pointer publishes the finished index.
func (l *LTS) index(p *atomic.Pointer[csr], from, to []int32) *csr {
	if c := p.Load(); c != nil {
		return c
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c := p.Load()
	if c == nil {
		c = newCSR(l.numStates, len(l.labels), from, l.lab, to)
		p.Store(c)
	}
	return c
}

// dropIndex discards the index after a mutation.
func (l *LTS) dropIndex() {
	if l.out.Load() != nil {
		l.out.Store(nil)
	}
	if l.in.Load() != nil {
		l.in.Store(nil)
	}
}

// Out returns the outgoing row of s: parallel slices of labels and
// destinations, sorted by (label, dst). The slices alias the index and
// must not be modified.
func (l *LTS) Out(s State) (labels, dsts []int32) {
	c := l.outIndex()
	lo, hi := c.off[s], c.off[s+1]
	return c.lab[lo:hi], c.end[lo:hi]
}

// In returns the incoming row of s: parallel slices of labels and
// sources, sorted by (label, src). The slices alias the index and must
// not be modified.
func (l *LTS) In(s State) (labels, srcs []int32) {
	c := l.inIndex()
	lo, hi := c.off[s], c.off[s+1]
	return c.lab[lo:hi], c.end[lo:hi]
}

// OutDegree returns the number of transitions leaving s.
func (l *LTS) OutDegree(s State) int {
	c := l.outIndex()
	return int(c.off[s+1] - c.off[s])
}

// Succ returns the destinations of the transitions leaving s with the
// given label, located by binary search in the label-sorted row. The
// returned slice aliases the index, is sorted ascending (possibly with
// duplicates), and must not be modified.
func (l *LTS) Succ(s State, label int) []int32 {
	labs, dsts := l.Out(s)
	lo := sort.Search(len(labs), func(i int) bool { return labs[i] >= int32(label) })
	hi := lo
	for hi < len(labs) && labs[hi] == int32(label) {
		hi++
	}
	return dsts[lo:hi]
}
