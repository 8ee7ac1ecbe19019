// Package lts implements Labeled Transition Systems (LTSs), the semantic
// model underlying the whole Multival flow: process-calculus models are
// compiled into LTSs, which are then minimized modulo bisimulations,
// model-checked, composed, and decorated with stochastic timing.
//
// An LTS is a rooted, edge-labeled directed graph. States are dense integer
// indices; labels are interned strings. The internal (invisible) action is
// the label "i", following the CADP/Aldebaran convention.
package lts

import (
	"fmt"
	"sort"
	"strings"
)

// State identifies a state of an LTS. States are dense indices in
// [0, NumStates).
type State int

// Tau is the label of the internal (invisible) action, written "i" in the
// Aldebaran (.aut) format used by CADP.
const Tau = "i"

// Gate returns the gate of a transition label following LOTOS conventions:
// the prefix before the first space ("c !1" -> "c", "done" -> "done").
// This is the one label-splitting helper used everywhere the flow groups
// labels per gate (hiding, synchronization sets, rate decoration).
func Gate(label string) string {
	for i := 0; i < len(label); i++ {
		if label[i] == ' ' {
			return label[:i]
		}
	}
	return label
}

// Transition is a single labeled edge of an LTS.
type Transition struct {
	Src   State
	Label int // index into the LTS label table
	Dst   State
}

// LTS is a labeled transition system with a distinguished initial state.
// The zero value is an empty LTS with no states; use New to create one with
// a name, then AddState / AddTransition to populate it.
type LTS struct {
	name      string
	initial   State
	numStates int

	labels   []string
	labelIdx map[string]int

	trans []Transition
	out   [][]int32 // out[s] = indices into trans, in insertion order
	in    [][]int32 // in[s]  = indices into trans (maintained for refinement)
}

// New returns an empty LTS with the given descriptive name.
func New(name string) *LTS {
	return &LTS{name: name, labelIdx: make(map[string]int)}
}

// Name returns the descriptive name of the LTS.
func (l *LTS) Name() string { return l.name }

// SetName changes the descriptive name of the LTS.
func (l *LTS) SetName(name string) { l.name = name }

// AddState appends a fresh state and returns its index.
func (l *LTS) AddState() State {
	s := State(l.numStates)
	l.numStates++
	l.out = append(l.out, nil)
	l.in = append(l.in, nil)
	return s
}

// AddStates appends n fresh states and returns the index of the first one.
// The per-state tables grow once, not once per state.
func (l *LTS) AddStates(n int) State {
	first := State(l.numStates)
	if n > 0 {
		l.numStates += n
		l.out = append(l.out, make([][]int32, n)...)
		l.in = append(l.in, make([][]int32, n)...)
	}
	return first
}

// NumStates returns the number of states.
func (l *LTS) NumStates() int { return l.numStates }

// NumTransitions returns the number of transitions.
func (l *LTS) NumTransitions() int { return len(l.trans) }

// Initial returns the initial state.
func (l *LTS) Initial() State { return l.initial }

// SetInitial sets the initial state. It panics if s is out of range.
func (l *LTS) SetInitial(s State) {
	l.checkState(s)
	l.initial = s
}

func (l *LTS) checkState(s State) {
	if s < 0 || int(s) >= l.numStates {
		panic(fmt.Sprintf("lts: state %d out of range [0,%d)", s, l.numStates))
	}
}

// LabelID interns a label string and returns its dense index.
func (l *LTS) LabelID(label string) int {
	if id, ok := l.labelIdx[label]; ok {
		return id
	}
	id := len(l.labels)
	l.labels = append(l.labels, label)
	l.labelIdx[label] = id
	return id
}

// LookupLabel returns the index of label, or -1 if the label does not occur.
func (l *LTS) LookupLabel(label string) int {
	if id, ok := l.labelIdx[label]; ok {
		return id
	}
	return -1
}

// LabelName returns the string of a label index.
func (l *LTS) LabelName(id int) string { return l.labels[id] }

// NumLabels returns the number of distinct labels interned so far.
func (l *LTS) NumLabels() int { return len(l.labels) }

// Labels returns a copy of the label table, indexed by label id.
func (l *LTS) Labels() []string {
	out := make([]string, len(l.labels))
	copy(out, l.labels)
	return out
}

// TauID returns the label index of the internal action, interning it if
// necessary.
func (l *LTS) TauID() int { return l.LabelID(Tau) }

// IsTau reports whether the label index denotes the internal action.
func (l *LTS) IsTau(id int) bool { return l.labels[id] == Tau }

// AddTransition adds an edge src --label--> dst, interning the label.
func (l *LTS) AddTransition(src State, label string, dst State) {
	l.AddTransitionID(src, l.LabelID(label), dst)
}

// AddTransitionID adds an edge with an already-interned label index.
func (l *LTS) AddTransitionID(src State, label int, dst State) {
	l.checkState(src)
	l.checkState(dst)
	if label < 0 || label >= len(l.labels) {
		panic(fmt.Sprintf("lts: label %d out of range [0,%d)", label, len(l.labels)))
	}
	idx := int32(len(l.trans))
	l.trans = append(l.trans, Transition{Src: src, Label: label, Dst: dst})
	l.out[src] = append(l.out[src], idx)
	l.in[dst] = append(l.in[dst], idx)
}

// Transition returns the i-th transition (in insertion order).
func (l *LTS) Transition(i int) Transition { return l.trans[i] }

// Outgoing returns the transitions leaving s, in insertion order.
// The returned slice is freshly allocated.
func (l *LTS) Outgoing(s State) []Transition {
	l.checkState(s)
	out := make([]Transition, len(l.out[s]))
	for i, idx := range l.out[s] {
		out[i] = l.trans[idx]
	}
	return out
}

// EachOutgoing calls f for every transition leaving s. It avoids the
// allocation of Outgoing and is the preferred traversal in hot loops.
func (l *LTS) EachOutgoing(s State, f func(Transition)) {
	for _, idx := range l.out[s] {
		f(l.trans[idx])
	}
}

// EachIncoming calls f for every transition entering s.
func (l *LTS) EachIncoming(s State, f func(Transition)) {
	for _, idx := range l.in[s] {
		f(l.trans[idx])
	}
}

// EachTransition calls f for every transition of the LTS.
func (l *LTS) EachTransition(f func(Transition)) {
	for _, t := range l.trans {
		f(t)
	}
}

// OutDegree returns the number of transitions leaving s.
func (l *LTS) OutDegree(s State) int { return len(l.out[s]) }

// Successors returns the distinct states reachable from s by one transition
// labeled with the given label id, in ascending order.
func (l *LTS) Successors(s State, label int) []State {
	var succ []State
	l.EachOutgoing(s, func(t Transition) {
		if t.Label == label {
			succ = append(succ, t.Dst)
		}
	})
	return dedupStates(succ)
}

// HasTransition reports whether the exact edge src --label--> dst exists.
func (l *LTS) HasTransition(src State, label int, dst State) bool {
	found := false
	l.EachOutgoing(src, func(t Transition) {
		if t.Label == label && t.Dst == dst {
			found = true
		}
	})
	return found
}

// IsDeadlock reports whether s has no outgoing transitions.
func (l *LTS) IsDeadlock(s State) bool { return len(l.out[s]) == 0 }

// DeadlockStates returns all states with no outgoing transitions.
func (l *LTS) DeadlockStates() []State {
	var dead []State
	for s := 0; s < l.numStates; s++ {
		if len(l.out[s]) == 0 {
			dead = append(dead, State(s))
		}
	}
	return dead
}

// Build constructs an LTS in one pass from parts whose shape is already
// known: the full label table (indexed by label id), and the transition
// list in final insertion order. Per-state adjacency is assembled by
// counting sort into exactly-sized backing arrays instead of
// per-transition appends, so bulk producers — the sharded product
// generator's renumbering pass — pay O(states + transitions) with a
// constant number of allocations. Build takes ownership of trans; the
// result is indistinguishable from an LTS built by AddTransitionID calls
// in the same order (later mutations remain valid: the per-state slices
// are capacity-clamped, so appends copy out of the shared arrays).
func Build(name string, numStates int, initial State, labels []string, trans []Transition) *LTS {
	l := &LTS{
		name:      name,
		numStates: numStates,
		labels:    append([]string(nil), labels...),
		labelIdx:  make(map[string]int, len(labels)),
		trans:     trans,
		out:       make([][]int32, numStates),
		in:        make([][]int32, numStates),
	}
	for i, lab := range l.labels {
		l.labelIdx[lab] = i
	}
	outDeg := make([]int32, numStates)
	inDeg := make([]int32, numStates)
	for _, t := range trans {
		l.checkState(t.Src)
		l.checkState(t.Dst)
		if t.Label < 0 || t.Label >= len(l.labels) {
			panic(fmt.Sprintf("lts: label %d out of range [0,%d)", t.Label, len(l.labels)))
		}
		outDeg[t.Src]++
		inDeg[t.Dst]++
	}
	outBuf := make([]int32, len(trans))
	inBuf := make([]int32, len(trans))
	var outOff, inOff int32
	for s := 0; s < numStates; s++ {
		l.out[s] = outBuf[outOff : outOff : outOff+outDeg[s]]
		l.in[s] = inBuf[inOff : inOff : inOff+inDeg[s]]
		outOff += outDeg[s]
		inOff += inDeg[s]
	}
	for i, t := range trans {
		l.out[t.Src] = append(l.out[t.Src], int32(i))
		l.in[t.Dst] = append(l.in[t.Dst], int32(i))
	}
	if numStates > 0 {
		l.SetInitial(initial)
	}
	return l
}

// Copy returns a deep copy of the LTS.
func (l *LTS) Copy() *LTS {
	c := New(l.name)
	c.initial = l.initial
	c.numStates = l.numStates
	c.labels = append([]string(nil), l.labels...)
	for i, lab := range c.labels {
		c.labelIdx[lab] = i
	}
	c.trans = append([]Transition(nil), l.trans...)
	c.out = make([][]int32, l.numStates)
	c.in = make([][]int32, l.numStates)
	for s := 0; s < l.numStates; s++ {
		c.out[s] = append([]int32(nil), l.out[s]...)
		c.in[s] = append([]int32(nil), l.in[s]...)
	}
	return c
}

// Stats summarizes the size of an LTS.
type Stats struct {
	States      int
	Transitions int
	Labels      int
	Deadlocks   int
	TauCount    int
}

// Stats computes summary statistics.
func (l *LTS) Stats() Stats {
	st := Stats{
		States:      l.numStates,
		Transitions: len(l.trans),
		Labels:      len(l.labels),
		Deadlocks:   len(l.DeadlockStates()),
	}
	tau, ok := l.labelIdx[Tau]
	if ok {
		for _, t := range l.trans {
			if t.Label == tau {
				st.TauCount++
			}
		}
	}
	return st
}

// String returns a compact human-readable summary.
func (l *LTS) String() string {
	return fmt.Sprintf("lts %q: %d states, %d transitions, %d labels",
		l.name, l.numStates, len(l.trans), len(l.labels))
}

// Dump renders every transition, one per line, for debugging and tests.
func (l *LTS) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "initial %d\n", l.initial)
	for _, t := range l.trans {
		fmt.Fprintf(&b, "%d --%s--> %d\n", t.Src, l.labels[t.Label], t.Dst)
	}
	return b.String()
}

func dedupStates(ss []State) []State {
	if len(ss) < 2 {
		return ss
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
	w := 1
	for i := 1; i < len(ss); i++ {
		if ss[i] != ss[i-1] {
			ss[w] = ss[i]
			w++
		}
	}
	return ss[:w]
}
