package imc

// Throughput bounds over the memoryless deterministic resolutions of an
// IMC's internal nondeterminism.
//
// The original implementation enumerated every deterministic scheduler
// with an odometer and ran a full CTMC extraction plus a steady-state
// solve per combination — exponential in the number of nondeterministic
// vanishing states (kept below as ThroughputBoundsEnum, the differential
// reference for small models). ThroughputBounds replaces it with
// average-reward (Howard) policy iteration: evaluate ONE scheduler, then
// improve every nondeterministic vanishing state greedily against the
// current value/throughput gradient, and repeat until no state wants to
// switch. Each round costs one evaluation instead of one per combination,
// and Howard converges in a handful of rounds in practice.
//
// The evaluation reuses one shared elimination across iterations: because
// schedulers are deterministic, every vanishing state resolves along a
// single instantaneous path to exactly one tangible state, so the
// elimination is path-following over pre-extracted flat alternative
// arrays (no distribution maps, no closures) with all scratch reused
// between policies. The improvement gradient is the bias vector of the
// evaluated chain (markov.CTMC.Bias): switching a vanishing state to
// alternative a is profitable exactly when
//
//	1{a crosses the label} + bias(tangible state a resolves to)
//
// beats the current choice's value, which is the semi-Markov Bellman
// inequality with zero sojourn time at vanishing states.
//
// On unichain models (every deterministic policy yields one bottom
// component) the fixed point is the exact extremum. On multichain models
// the bias equation has no solution (Bias rejects the chain
// structurally); the iteration then stops and reports the best policy
// found so far — still an attainable throughput, so the returned
// interval is always realizable, just possibly not extremal.

import (
	"errors"
	"fmt"
	"sort"

	"multival/internal/engine"
	"multival/internal/lts"
	"multival/internal/markov"
	"multival/internal/sparse"
)

// altEdge is one pre-extracted instantaneous alternative of a vanishing
// state: its destination and whether taking it crosses the queried label.
type altEdge struct {
	dst    int32
	counts bool
}

// boundsEvaluator is the shared elimination/extraction reused across
// policy-iteration rounds: the policy-independent structure is computed
// once, and per-evaluation scratch is recycled.
type boundsEvaluator struct {
	label string
	n     int

	tangible []lts.State // ascending; CTMC state ci = tangible[ci]
	indexOf  []int32     // IMC state -> CTMC index (-1 for vanishing)
	alts     [][]altEdge // per IMC state, its instantaneous alternatives
	nd       []int32     // vanishing states with >1 alternative
	ndIndex  []int32     // IMC state -> index into nd (-1 otherwise)
	rates    *sparse.Matrix
	initial  int

	// Per-evaluation scratch.
	resT    []int32 // resolved CTMC index per IMC state (-1 unset)
	resC    []int32 // label crossings along the resolution path
	mark    []int8  // 0 white, 1 on path (Zeno detection), 2 done
	path    []int32
	accum   []float64
	touched []int32

	// Results of the last evaluation.
	chain  *markov.CTMC
	weight []float64 // label crossings per unit time, per CTMC state
}

func newBoundsEvaluator(m *IMC, label string) (*boundsEvaluator, error) {
	n := m.NumStates()
	if n == 0 {
		return nil, fmt.Errorf("imc: empty IMC")
	}
	e := &boundsEvaluator{
		label:   label,
		n:       n,
		indexOf: make([]int32, n),
		alts:    make([][]altEdge, n),
		ndIndex: make([]int32, n),
		rates:   m.rateMatrix(),
		initial: int(m.Initial()),
		resT:    make([]int32, n),
		resC:    make([]int32, n),
		mark:    make([]int8, n),
	}
	for s := 0; s < n; s++ {
		e.indexOf[s] = -1
		e.ndIndex[s] = -1
		labs, dsts := m.Inter.Out(lts.State(s))
		if len(labs) == 0 {
			e.indexOf[s] = int32(len(e.tangible))
			e.tangible = append(e.tangible, lts.State(s))
			continue
		}
		edges := make([]altEdge, len(labs))
		for i, id := range labs {
			lab := m.Inter.LabelName(int(id))
			edges[i] = altEdge{dst: dsts[i], counts: lab == label && lab != lts.Tau}
		}
		e.alts[s] = edges
		if len(labs) > 1 {
			e.ndIndex[s] = int32(len(e.nd))
			e.nd = append(e.nd, int32(s))
		}
	}
	if len(e.tangible) == 0 {
		return nil, fmt.Errorf("imc: no tangible states (model is entirely instantaneous)")
	}
	e.accum = make([]float64, len(e.tangible))
	e.weight = make([]float64, len(e.tangible))
	return e, nil
}

// chosen returns the alternative a vanishing state takes under the
// policy.
func (e *boundsEvaluator) chosen(s int32, choice []int32) altEdge {
	a := e.alts[s]
	if ni := e.ndIndex[s]; ni >= 0 {
		return a[choice[ni]]
	}
	return a[0]
}

// resolve follows the policy's instantaneous path from IMC state s to a
// tangible state, filling resT (CTMC index reached) and resC (label
// crossings along the way) for every state on the path. A revisited
// on-path state is an instantaneous cycle (*ZenoError).
func (e *boundsEvaluator) resolve(s int32, choice []int32) error {
	e.path = e.path[:0]
	cur := s
	for e.resT[cur] < 0 {
		if e.mark[cur] == 1 {
			return &ZenoError{lts.State(cur)}
		}
		e.mark[cur] = 1
		e.path = append(e.path, cur)
		cur = e.chosen(cur, choice).dst
	}
	baseT, baseC := e.resT[cur], e.resC[cur]
	for i := len(e.path) - 1; i >= 0; i-- {
		v := e.path[i]
		if e.chosen(v, choice).counts {
			baseC++
		}
		e.resT[v] = baseT
		e.resC[v] = baseC
		e.mark[v] = 2
	}
	return nil
}

// evaluate eliminates the vanishing states under the given policy,
// builds the embedded CTMC plus per-state label weights, solves its
// steady state and returns the policy's throughput (the gain).
func (e *boundsEvaluator) evaluate(choice []int32, opts markov.SolveOptions) (float64, error) {
	for s := 0; s < e.n; s++ {
		e.resT[s] = e.indexOf[s]
		e.resC[s] = 0
		e.mark[s] = 0
	}
	for i := range e.weight {
		e.weight[i] = 0
	}
	// A previous evaluation that aborted mid-row (Zeno) leaves its
	// accumulator dirty; flush it here so every evaluation starts clean.
	for _, t := range e.touched {
		e.accum[t] = 0
	}
	e.touched = e.touched[:0]
	chain := markov.NewCTMC(len(e.tangible))
	for ci, s := range e.tangible {
		cols, vals := e.rates.Row(int(s))
		for k := range cols {
			d := cols[k]
			if err := e.resolve(d, choice); err != nil {
				return 0, err
			}
			t := e.resT[d]
			if e.accum[t] == 0 {
				e.touched = append(e.touched, t)
			}
			e.accum[t] += vals[k]
			e.weight[ci] += vals[k] * float64(e.resC[d])
		}
		sort.Slice(e.touched, func(a, b int) bool { return e.touched[a] < e.touched[b] })
		for _, t := range e.touched {
			if int(t) != ci {
				if err := chain.Add(ci, int(t), e.accum[t], ""); err != nil {
					return 0, err
				}
			}
			e.accum[t] = 0
		}
		e.touched = e.touched[:0]
	}
	if err := e.resolve(int32(e.initial), choice); err != nil {
		return 0, err
	}
	chain.SetInitial(int(e.resT[e.initial]))
	pi, err := chain.SteadyState(opts)
	if err != nil {
		return 0, err
	}
	gain := 0.0
	for i, p := range pi {
		gain += p * e.weight[i]
	}
	e.chain = chain
	return gain, nil
}

// improve performs one Howard improvement round against the bias vector
// of the last evaluation: every nondeterministic vanishing state switches
// to the alternative with the best immediate-crossing-plus-successor-bias
// value. Returns whether any state switched.
func (e *boundsEvaluator) improve(choice []int32, h []float64, maximize bool) bool {
	// Gradients are taken against the OLD policy even as choice mutates:
	// lazy resolutions below use this frozen copy.
	old := append([]int32(nil), choice...)
	improved := false
	for i, v := range e.nd {
		qOf := func(a altEdge) (float64, bool) {
			// The successor's resolution under the old policy; an
			// unresolved destination (never demanded by the evaluation
			// and not on any resolved path) is resolved on the fly.
			if e.resT[a.dst] < 0 {
				if err := e.resolve(a.dst, old); err != nil {
					return 0, false // following it would hit a Zeno cycle
				}
			}
			q := float64(e.resC[a.dst]) + h[e.resT[a.dst]]
			if a.counts {
				q++
			}
			return q, true
		}
		alts := e.alts[v]
		best := choice[i]
		bestQ, ok := qOf(alts[best])
		if !ok {
			continue
		}
		for a := range alts {
			if int32(a) == choice[i] {
				continue
			}
			q, ok := qOf(alts[a])
			if !ok {
				continue
			}
			margin := 1e-9 * (1 + absf(bestQ))
			if (maximize && q > bestQ+margin) || (!maximize && q < bestQ-margin) {
				best, bestQ = int32(a), q
			}
		}
		if best != choice[i] {
			choice[i] = best
			improved = true
		}
	}
	return improved
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// throughputBoundPolicy runs Howard policy iteration toward one extremum
// of the label's steady-state throughput and returns the best gain found.
func (m *IMC) throughputBoundPolicy(e *boundsEvaluator, maximize bool, opts markov.SolveOptions) (float64, error) {
	choice := make([]int32, len(e.nd))
	gain, err := e.evaluate(choice, opts)
	if err != nil {
		return 0, err
	}
	maxRounds := 16 + 2*len(e.nd)
	for round := 0; round < maxRounds; round++ {
		h, err := e.chain.Bias(e.weight, gain, opts)
		if err != nil {
			// Multichain policy (rejected structurally) or a sweep that
			// cannot converge: the bias gradient does not exist; keep
			// the best attainable gain found so far.
			if errors.Is(err, engine.ErrNotIrreducible) || errors.Is(err, engine.ErrNoConvergence) {
				return gain, nil
			}
			return 0, err
		}
		if !e.improve(choice, h, maximize) {
			return gain, nil
		}
		next, err := e.evaluate(choice, opts)
		if err != nil {
			var zeno *ZenoError
			if errors.As(err, &zeno) {
				// The switch created an instantaneous cycle; keep the
				// previous (evaluable) policy's gain. The evaluator's
				// scratch self-cleans on the next evaluation, so no
				// restoring re-evaluation is needed.
				return gain, nil
			}
			return 0, err
		}
		// Guard against floating-point policy cycling: accept only
		// non-worsening moves.
		if (maximize && next < gain) || (!maximize && next > gain) {
			return gain, nil
		}
		gain = next
	}
	return gain, nil
}

// ThroughputBounds returns the minimal and maximal steady-state
// throughput of the label over all memoryless deterministic resolutions
// of the IMC's internal nondeterminism, computed by average-reward policy
// iteration (see the package comment above for the algorithm and its
// multichain caveat). This implements the "handle nondeterminism"
// extension the paper lists as an open issue without the exponential
// scheduler enumeration of ThroughputBoundsEnum: each policy-iteration
// round costs one evaluation, so models with dozens of nondeterministic
// states are solvable. opts carries the solver worker count,
// cancellation context and progress observer.
func (m *IMC) ThroughputBounds(label string, opts markov.SolveOptions) (min, max float64, err error) {
	e, err := newBoundsEvaluator(m, label)
	if err != nil {
		return 0, 0, err
	}
	min, err = m.throughputBoundPolicy(e, false, opts)
	if err != nil {
		return 0, 0, err
	}
	max, err = m.throughputBoundPolicy(e, true, opts)
	if err != nil {
		return 0, 0, err
	}
	if min > max {
		min, max = max, min
	}
	return min, max, nil
}
