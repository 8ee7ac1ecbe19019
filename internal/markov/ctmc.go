// Package markov implements continuous-time Markov chains (CTMCs) and the
// numerical solvers the Multival performance-evaluation flow relies on:
// steady-state distributions (Gauss–Seidel with BSCC analysis), transient
// distributions (uniformization), transition throughputs, expected
// absorption times (used for latency predictions) and bias (Poisson)
// vectors. It plays the role of BCG_STEADY and BCG_TRANSIENT in CADP.
//
// Transitions are accumulated as labeled triplets; solvers read them
// through the shared sparse CSR rate matrix (package sparse), which is
// frozen lazily and invalidated on mutation.
package markov

import (
	"fmt"
	"math"

	"multival/internal/sparse"
)

// Transition is a rated, optionally labeled CTMC transition.
type Transition struct {
	Src, Dst int
	Rate     float64
	Label    string // informational; used for throughput queries
}

// CTMC is a finite continuous-time Markov chain with a distinguished
// initial state.
//
// Concurrency contract: a CTMC being mutated is not safe for concurrent
// use, and neither are the lazy caches — queries freeze the CSR view on
// first access (and Add invalidates it), so even read-only methods may
// write the cache. Call Freeze() after the last Add to pre-build both CSR
// views; from then on every read-only method (EachFrom, SteadyState,
// Transient, ExpectedTimeToAbsorption, Bias, ...) is safe to call from
// several goroutines at once, as long as no Add/SetInitial runs
// concurrently. The solvers freeze internally before sharding sweeps
// across workers, so a single solve call is always race-free; Freeze
// matters when the CALLER fans one chain out to several goroutines.
type CTMC struct {
	numStates int
	initial   int
	trans     []Transition
	exitRate  []float64

	mat *sparse.Matrix // lazily frozen CSR view of trans (tag = index)
	tin *sparse.Matrix // lazily built transpose (incoming adjacency)
}

// NewCTMC creates a CTMC with n states, initial state 0.
func NewCTMC(n int) *CTMC {
	return &CTMC{
		numStates: n,
		exitRate:  make([]float64, n),
	}
}

// NumStates returns the number of states.
func (c *CTMC) NumStates() int { return c.numStates }

// NumTransitions returns the number of transitions.
func (c *CTMC) NumTransitions() int { return len(c.trans) }

// Initial returns the initial state.
func (c *CTMC) Initial() int { return c.initial }

// SetInitial sets the initial state.
func (c *CTMC) SetInitial(s int) {
	if s < 0 || s >= c.numStates {
		panic(fmt.Sprintf("markov: state %d out of range", s))
	}
	c.initial = s
}

// Add inserts a transition with the given rate (must be positive) and an
// optional label. Self-loops are ignored (they do not affect CTMC
// semantics) but still contribute to label throughput bookkeeping, so they
// are stored with rate counted out of the sojourn: to keep the generator
// well-formed we drop them and document the fact.
func (c *CTMC) Add(src, dst int, rate float64, label string) error {
	if src < 0 || src >= c.numStates || dst < 0 || dst >= c.numStates {
		return fmt.Errorf("markov: transition (%d,%d) out of range", src, dst)
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("markov: invalid rate %v", rate)
	}
	if src == dst {
		return nil
	}
	c.trans = append(c.trans, Transition{src, dst, rate, label})
	c.exitRate[src] += rate
	c.mat, c.tin = nil, nil
	return nil
}

// MustAdd is Add that panics on error, for hand-built models.
func (c *CTMC) MustAdd(src, dst int, rate float64, label string) {
	if err := c.Add(src, dst, rate, label); err != nil {
		panic(err)
	}
}

// matrix returns the frozen CSR rate matrix, building it on demand. Entry
// tags index back into the transition table, so label lookups survive the
// CSR permutation.
func (c *CTMC) matrix() *sparse.Matrix {
	if c.mat == nil {
		nnz := len(c.trans)
		rows := make([]int32, nnz)
		cols := make([]int32, nnz)
		vals := make([]float64, nnz)
		tags := make([]int32, nnz)
		for i, t := range c.trans {
			rows[i] = int32(t.Src)
			cols[i] = int32(t.Dst)
			vals[i] = t.Rate
			tags[i] = int32(i)
		}
		c.mat = sparse.New(c.numStates, rows, cols, vals, tags)
	}
	return c.mat
}

// incoming returns the transposed rate matrix (incoming adjacency),
// building it on demand.
func (c *CTMC) incoming() *sparse.Matrix {
	if c.tin == nil {
		c.tin = c.matrix().Transpose()
	}
	return c.tin
}

// Freeze eagerly builds both lazy CSR views (outgoing and incoming
// adjacency), so that subsequent read-only methods never write the cache
// and are safe for concurrent use (see the type's concurrency contract).
// Adding transitions after Freeze invalidates the views; call Freeze
// again before resuming concurrent reads. Idempotent and cheap when
// already frozen.
func (c *CTMC) Freeze() {
	c.matrix()
	c.incoming()
}

// ExitRate returns the total outgoing rate of a state (0 for absorbing).
func (c *CTMC) ExitRate(s int) float64 { return c.exitRate[s] }

// EachFrom calls f for every transition leaving s, in ascending
// destination order.
func (c *CTMC) EachFrom(s int, f func(Transition)) {
	for _, tag := range c.matrix().RowTags(s) {
		f(c.trans[tag])
	}
}

// EachTransition calls f for every transition.
func (c *CTMC) EachTransition(f func(Transition)) {
	for _, t := range c.trans {
		f(t)
	}
}

// MaxExitRate returns the largest exit rate (the uniformization constant
// base).
func (c *CTMC) MaxExitRate() float64 {
	max := 0.0
	for _, r := range c.exitRate {
		if r > max {
			max = r
		}
	}
	return max
}

// bsccs returns the bottom strongly connected components (those with no
// transition leaving the component), each sorted ascending.
func (c *CTMC) bsccs() [][]int {
	return c.matrix().BottomSCCs()
}
