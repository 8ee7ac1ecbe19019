// Package imc implements Interactive Markov Chains (Hermanns, LNCS 2428),
// the formalism at the heart of the Multival performance-evaluation flow:
// an IMC combines the interactive transitions of an LTS with Markovian
// (exponentially delayed) transitions. The package provides parallel
// composition, hiding, maximal progress, delay decoration with phase-type
// distributions, stochastic lumping, and the transformation into a CTMC —
// including explicit handling of the nondeterminism that the paper lists
// as an open issue (schedulers and extremal bounds).
package imc

import (
	"fmt"
	"math"

	"multival/internal/lts"
	"multival/internal/sparse"
)

// MTransition is a Markovian (delay) transition with an exponential rate.
type MTransition struct {
	Src, Dst lts.State
	Rate     float64
}

// IMC is an interactive Markov chain: an LTS carrying the interactive
// transitions plus a set of Markovian transitions over the same states.
type IMC struct {
	// Inter holds the states and interactive transitions. Its state set
	// is the IMC's state set.
	Inter *lts.LTS
	// Markov holds the Markovian transitions. Mutate only through
	// AddRate or AppendMarkov (or rebuild the IMC); direct appends
	// after a traversal would leave the cached rate matrix stale.
	Markov []MTransition

	rm *sparse.Matrix // lazily built CSR rate matrix over Markov
}

// New creates an empty IMC with the given name.
func New(name string) *IMC {
	return &IMC{Inter: lts.New(name)}
}

// FromLTS wraps an LTS as an IMC with no Markovian transitions. The LTS is
// copied, so later mutations do not alias.
func FromLTS(l *lts.LTS) *IMC {
	return &IMC{Inter: l.Copy()}
}

// Name returns the IMC's name.
func (m *IMC) Name() string { return m.Inter.Name() }

// NumStates returns the number of states.
func (m *IMC) NumStates() int { return m.Inter.NumStates() }

// Initial returns the initial state.
func (m *IMC) Initial() lts.State { return m.Inter.Initial() }

// AddState adds a fresh state.
func (m *IMC) AddState() lts.State {
	m.rm = nil
	return m.Inter.AddState()
}

// AddInteractive adds an interactive transition.
func (m *IMC) AddInteractive(src lts.State, label string, dst lts.State) {
	m.Inter.AddTransition(src, label, dst)
}

// AddRate adds a Markovian transition; rate must be positive and finite.
func (m *IMC) AddRate(src, dst lts.State, rate float64) error {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("imc: invalid rate %v", rate)
	}
	if int(src) >= m.NumStates() || int(dst) >= m.NumStates() || src < 0 || dst < 0 {
		return fmt.Errorf("imc: transition (%d,%d) out of range", src, dst)
	}
	m.Markov = append(m.Markov, MTransition{src, dst, rate})
	m.rm = nil
	return nil
}

// MustAddRate is AddRate that panics on error.
func (m *IMC) MustAddRate(src, dst lts.State, rate float64) {
	if err := m.AddRate(src, dst, rate); err != nil {
		panic(err)
	}
}

// AppendMarkov bulk-copies already-validated Markovian transitions (e.g.
// from another IMC over the same state space) and invalidates the cached
// rate matrix. Use this instead of appending to Markov directly.
func (m *IMC) AppendMarkov(ts []MTransition) {
	m.Markov = append(m.Markov, ts...)
	m.rm = nil
}

// rateMatrix returns the CSR rate matrix over the Markovian transitions,
// building it on demand through the shared sparse plumbing. Duplicate
// edges are preserved, so the matrix is a faithful multiset view.
func (m *IMC) rateMatrix() *sparse.Matrix {
	if m.rm == nil {
		nnz := len(m.Markov)
		rows := make([]int32, nnz)
		cols := make([]int32, nnz)
		vals := make([]float64, nnz)
		for i, t := range m.Markov {
			rows[i] = int32(t.Src)
			cols[i] = int32(t.Dst)
			vals[i] = t.Rate
		}
		m.rm = sparse.New(m.NumStates(), rows, cols, vals, nil)
	}
	return m.rm
}

// Freeze eagerly builds the lazy CSR rate matrix so that subsequent
// read-only traversals (EachRateFrom, RateDegree, ExitRate, CTMC
// extraction, ThroughputBounds) never write the cache and are safe for
// concurrent use, as long as no mutation (AddState, AddRate,
// AppendMarkov) runs concurrently. Mutating after Freeze invalidates the
// matrix; call Freeze again before resuming concurrent reads.
func (m *IMC) Freeze() {
	m.rateMatrix()
}

// EachRateFrom calls f for every Markovian transition leaving s, in
// ascending destination order.
func (m *IMC) EachRateFrom(s lts.State, f func(MTransition)) {
	cols, vals := m.rateMatrix().Row(int(s))
	for i := range cols {
		f(MTransition{Src: s, Dst: lts.State(cols[i]), Rate: vals[i]})
	}
}

// RateDegree returns the number of Markovian transitions leaving s.
func (m *IMC) RateDegree(s lts.State) int {
	return m.rateMatrix().RowLen(int(s))
}

// ExitRate returns the total Markovian exit rate of s.
func (m *IMC) ExitRate(s lts.State) float64 {
	return m.rateMatrix().RowSum(int(s))
}

// HasInteractive reports whether s has at least one outgoing interactive
// transition.
func (m *IMC) HasInteractive(s lts.State) bool {
	return m.Inter.OutDegree(s) > 0
}

// Hide replaces interactive labels whose gate (prefix before the first
// space) is in the given set by tau.
func (m *IMC) Hide(gates ...string) *IMC {
	set := map[string]bool{}
	for _, g := range gates {
		set[g] = true
	}
	inter := m.Inter.Hide(func(label string) bool {
		return set[lts.Gate(label)]
	})
	return &IMC{Inter: inter, Markov: append([]MTransition(nil), m.Markov...)}
}

// HideAll hides every visible interactive label.
func (m *IMC) HideAll() *IMC {
	return &IMC{
		Inter:  m.Inter.HideAll(),
		Markov: append([]MTransition(nil), m.Markov...),
	}
}

// MaximalProgress removes Markovian transitions from states that can take
// an internal (tau) step: internal actions take no time, so the
// exponential delay can never win the race. Visible interactive
// transitions do NOT preempt delays (the environment may refuse them).
func (m *IMC) MaximalProgress() *IMC {
	tau := m.Inter.LookupLabel(lts.Tau)
	urgent := make([]bool, m.NumStates())
	if tau >= 0 {
		m.Inter.EachTransition(func(t lts.Transition) {
			if t.Label == tau {
				urgent[t.Src] = true
			}
		})
	}
	out := &IMC{Inter: m.Inter.Copy()}
	for _, t := range m.Markov {
		if !urgent[t.Src] {
			out.Markov = append(out.Markov, t)
		}
	}
	return out
}

// Trim restricts the IMC to states reachable from the initial state via
// interactive or Markovian transitions.
func (m *IMC) Trim() *IMC {
	n := m.NumStates()
	if n == 0 {
		return New(m.Name())
	}
	seen := make([]bool, n)
	stack := []lts.State{m.Initial()}
	seen[m.Initial()] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.Inter.EachOutgoing(s, func(t lts.Transition) {
			if !seen[t.Dst] {
				seen[t.Dst] = true
				stack = append(stack, t.Dst)
			}
		})
		m.EachRateFrom(s, func(t MTransition) {
			if !seen[t.Dst] {
				seen[t.Dst] = true
				stack = append(stack, t.Dst)
			}
		})
	}
	mapping := make([]lts.State, n)
	out := New(m.Name())
	for s := 0; s < n; s++ {
		if seen[s] {
			mapping[s] = out.AddState()
		} else {
			mapping[s] = -1
		}
	}
	m.Inter.EachTransition(func(t lts.Transition) {
		if seen[t.Src] && seen[t.Dst] {
			out.Inter.AddTransition(mapping[t.Src], m.Inter.LabelName(t.Label), mapping[t.Dst])
		}
	})
	for _, t := range m.Markov {
		if seen[t.Src] && seen[t.Dst] {
			out.MustAddRate(mapping[t.Src], mapping[t.Dst], t.Rate)
		}
	}
	out.Inter.SetInitial(mapping[m.Initial()])
	return out
}

// Stats summarizes the IMC's size.
type Stats struct {
	States      int
	Interactive int
	Markovian   int
}

// Stats computes size statistics.
func (m *IMC) Stats() Stats {
	return Stats{
		States:      m.NumStates(),
		Interactive: m.Inter.NumTransitions(),
		Markovian:   len(m.Markov),
	}
}

// String summarizes the IMC.
func (m *IMC) String() string {
	st := m.Stats()
	return fmt.Sprintf("imc %q: %d states, %d interactive, %d Markovian",
		m.Name(), st.States, st.Interactive, st.Markovian)
}

// ReplaceLabelByRate converts every interactive transition carrying the
// exact label into a Markovian transition with the given rate. This is
// the paper's "direct" decoration style: stochastic delays inserted in
// place of designated actions.
func (m *IMC) ReplaceLabelByRate(label string, rate float64) (*IMC, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("imc: invalid rate %v", rate)
	}
	out := New(m.Name())
	out.Inter.AddStates(m.NumStates())
	var rerr error
	m.Inter.EachTransition(func(t lts.Transition) {
		if m.Inter.LabelName(t.Label) == label {
			if err := out.AddRate(t.Src, t.Dst, rate); err != nil {
				rerr = err
			}
			return
		}
		out.Inter.AddTransition(t.Src, m.Inter.LabelName(t.Label), t.Dst)
	})
	if rerr != nil {
		return nil, rerr
	}
	out.AppendMarkov(m.Markov)
	if m.NumStates() > 0 {
		out.Inter.SetInitial(m.Initial())
	}
	return out, nil
}

// ReplaceLabelByRateWithMarker converts every interactive transition
// carrying the exact label into a Markovian delay followed by an
// instantaneous visible marker action:
//
//	src --label--> dst   becomes   src ~~rate~~> fresh --marker--> dst
//
// The marker survives CTMC extraction as a throughput weight, so the
// occurrence rate of the original action remains measurable after the
// delay decoration.
func (m *IMC) ReplaceLabelByRateWithMarker(label string, rate float64, marker string) (*IMC, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("imc: invalid rate %v", rate)
	}
	out := New(m.Name())
	out.Inter.AddStates(m.NumStates())
	m.Inter.EachTransition(func(t lts.Transition) {
		if m.Inter.LabelName(t.Label) == label {
			mid := out.AddState()
			out.MustAddRate(t.Src, mid, rate)
			out.Inter.AddTransition(mid, marker, t.Dst)
			return
		}
		out.Inter.AddTransition(t.Src, m.Inter.LabelName(t.Label), t.Dst)
	})
	out.AppendMarkov(m.Markov)
	if m.NumStates() > 0 {
		out.Inter.SetInitial(m.Initial())
	}
	return out, nil
}
