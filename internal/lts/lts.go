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
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
//
// Edges are stored once, as flat int32 arrays in insertion order. The
// adjacency queries (Out, In, Succ, OutDegree, EachOutgoing, EachIncoming,
// Hash) read a CSR index that is built on first use and dropped by every
// mutation (see index.go). Reads may run concurrently with each other,
// the first one included; mutations may not run concurrently with
// anything.
type LTS struct {
	name      string
	initial   State
	numStates int

	labels   []string
	labelIdx map[string]int

	// Edge i is src[i] --lab[i]--> dst[i].
	src, lab, dst []int32

	mu      sync.Mutex // serializes index builds
	out, in atomic.Pointer[csr]
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
func (l *LTS) AddState() State { return l.AddStates(1) }

// AddStates appends n fresh states and returns the index of the first one.
// States carry no storage of their own, so this is a counter bump.
func (l *LTS) AddStates(n int) State {
	first := State(l.numStates)
	if n > 0 {
		if l.numStates+n > math.MaxInt32 {
			panic(fmt.Sprintf("lts: %d states overflow the int32 edge arrays", l.numStates+n))
		}
		l.numStates += n
		l.dropIndex()
	}
	return first
}

// NumStates returns the number of states.
func (l *LTS) NumStates() int { return l.numStates }

// NumTransitions returns the number of transitions.
func (l *LTS) NumTransitions() int { return len(l.src) }

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

func (l *LTS) checkLabel(label int) {
	if label < 0 || label >= len(l.labels) {
		panic(fmt.Sprintf("lts: label %d out of range [0,%d)", label, len(l.labels)))
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
	l.checkLabel(label)
	l.src = append(l.src, int32(src))
	l.lab = append(l.lab, int32(label))
	l.dst = append(l.dst, int32(dst))
	l.dropIndex()
}

// Transition returns the i-th transition (in insertion order).
func (l *LTS) Transition(i int) Transition {
	return Transition{State(l.src[i]), int(l.lab[i]), State(l.dst[i])}
}

// EachTransition calls f for every transition of the LTS, in insertion
// order.
func (l *LTS) EachTransition(f func(Transition)) {
	for i := range l.src {
		f(Transition{State(l.src[i]), int(l.lab[i]), State(l.dst[i])})
	}
}

// EachOutgoing calls f for every transition leaving s, in the (label,
// dst) order of its Out row.
func (l *LTS) EachOutgoing(s State, f func(Transition)) {
	labs, dsts := l.Out(s)
	for i := range labs {
		f(Transition{s, int(labs[i]), State(dsts[i])})
	}
}

// EachIncoming calls f for every transition entering s, in the (label,
// src) order of its In row.
func (l *LTS) EachIncoming(s State, f func(Transition)) {
	labs, srcs := l.In(s)
	for i := range labs {
		f(Transition{State(srcs[i]), int(labs[i]), s})
	}
}

// Successors returns the distinct states reachable from s by one transition
// labeled with the given label id, in ascending order.
func (l *LTS) Successors(s State, label int) []State {
	var succ []State
	for i, d := range l.Succ(s, label) {
		if i == 0 || State(d) != succ[len(succ)-1] {
			succ = append(succ, State(d))
		}
	}
	return succ
}

// HasTransition reports whether the exact edge src --label--> dst exists.
func (l *LTS) HasTransition(src State, label int, dst State) bool {
	_, found := slices.BinarySearch(l.Succ(src, label), int32(dst))
	return found
}

// IsDeadlock reports whether s has no outgoing transitions.
func (l *LTS) IsDeadlock(s State) bool { return l.OutDegree(s) == 0 }

// DeadlockStates returns all states with no outgoing transitions.
func (l *LTS) DeadlockStates() []State {
	var dead []State
	for s := 0; s < l.numStates; s++ {
		if l.OutDegree(State(s)) == 0 {
			dead = append(dead, State(s))
		}
	}
	return dead
}

// Build constructs an LTS in one step from parts whose shape is already
// known: the full label table (indexed by label id) and the edge arrays
// src, lab, dst in final insertion order. Build takes ownership of all
// four slices and validates every edge; the result is indistinguishable
// from an LTS built by AddTransitionID calls in the same order.
func Build(name string, numStates int, initial State, labels []string, src, lab, dst []int32) *LTS {
	if len(lab) != len(src) || len(dst) != len(src) {
		panic(fmt.Sprintf("lts: edge arrays of lengths %d, %d, %d", len(src), len(lab), len(dst)))
	}
	l := New(name)
	l.AddStates(numStates)
	l.labels = labels
	for i, label := range labels {
		l.labelIdx[label] = i
	}
	for i := range src {
		l.checkState(State(src[i]))
		l.checkState(State(dst[i]))
		l.checkLabel(int(lab[i]))
	}
	l.src, l.lab, l.dst = src, lab, dst
	if numStates > 0 {
		l.SetInitial(initial)
	}
	return l
}

// Copy returns a deep copy of the LTS. The copy shares the (immutable)
// adjacency index until either side is mutated.
func (l *LTS) Copy() *LTS {
	c := New(l.name)
	c.initial = l.initial
	c.numStates = l.numStates
	c.labels = slices.Clone(l.labels)
	for i, lab := range c.labels {
		c.labelIdx[lab] = i
	}
	c.src = slices.Clone(l.src)
	c.lab = slices.Clone(l.lab)
	c.dst = slices.Clone(l.dst)
	c.out.Store(l.out.Load())
	c.in.Store(l.in.Load())
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
		Transitions: len(l.src),
		Labels:      len(l.labels),
		Deadlocks:   len(l.DeadlockStates()),
	}
	if tau := l.LookupLabel(Tau); tau >= 0 {
		for _, lab := range l.lab {
			if int(lab) == tau {
				st.TauCount++
			}
		}
	}
	return st
}

// String returns a compact human-readable summary.
func (l *LTS) String() string {
	return fmt.Sprintf("lts %q: %d states, %d transitions, %d labels",
		l.name, l.numStates, len(l.src), len(l.labels))
}

// Dump renders every transition, one per line, for debugging and tests.
func (l *LTS) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "initial %d\n", l.initial)
	for i := range l.src {
		fmt.Fprintf(&b, "%d --%s--> %d\n", l.src[i], l.labels[l.lab[i]], l.dst[i])
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
