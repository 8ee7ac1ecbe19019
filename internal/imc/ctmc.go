package imc

import (
	"context"
	"fmt"
	"sort"

	"multival/internal/engine"
	"multival/internal/lts"
	"multival/internal/markov"
)

// NondeterminismError reports that the IMC-to-CTMC transformation hit a
// state offering several instantaneous alternatives with no scheduler to
// resolve them. The CADP Markov solvers of the paper's era reject such
// models outright (§5 lists "new algorithms to handle nondeterminism" as
// work in progress); pass a Scheduler to resolve, or use ThroughputBounds
// (policy iteration, bounds.go) to quantify the induced uncertainty.
type NondeterminismError struct {
	State        lts.State
	Alternatives int
}

func (e *NondeterminismError) Error() string {
	return fmt.Sprintf("imc: state %d offers %d instantaneous alternatives; provide a scheduler (nondeterminism is not accepted by the Markov solvers)", e.State, e.Alternatives)
}

// Unwrap classifies the error as the shared nondeterminism sentinel, so
// errors.Is(err, engine.ErrNondeterministic) holds.
func (e *NondeterminismError) Unwrap() error { return engine.ErrNondeterministic }

// ZenoError reports a cycle of instantaneous transitions (a livelock of
// internal steps), which has no CTMC semantics.
type ZenoError struct{ State lts.State }

func (e *ZenoError) Error() string {
	return fmt.Sprintf("imc: instantaneous cycle through state %d (tau livelock has no timed semantics)", e.State)
}

// Unwrap classifies the error as the shared Zeno sentinel, so
// errors.Is(err, engine.ErrZeno) holds.
func (e *ZenoError) Unwrap() error { return engine.ErrZeno }

// Scheduler resolves internal nondeterminism: given a vanishing state and
// its number of instantaneous alternatives, it returns a probability
// distribution over them. Alternatives are numbered in the state's
// lts.LTS.Out row order: by label id, then destination.
type Scheduler interface {
	Choose(s lts.State, alternatives int) []float64
}

// UniformScheduler resolves nondeterminism by choosing uniformly.
type UniformScheduler struct{}

// Choose implements Scheduler.
func (UniformScheduler) Choose(_ lts.State, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 / float64(n)
	}
	return d
}

// FixedScheduler always picks the alternative with the given index
// (modulo the number of alternatives); used for extremal enumeration.
type FixedScheduler struct {
	// Pick maps a vanishing state to the alternative to take; states
	// not in the map take alternative 0.
	Pick map[lts.State]int
}

// Choose implements Scheduler.
func (f FixedScheduler) Choose(s lts.State, n int) []float64 {
	d := make([]float64, n)
	i := f.Pick[s] % n
	d[i] = 1
	return d
}

// CTMCResult is the outcome of the IMC-to-CTMC transformation. Tangible
// IMC states become CTMC states; vanishing states (those with outgoing
// interactive transitions, which are instantaneous under maximal
// progress) are eliminated, and the visible labels crossed during
// elimination are accounted for in Weights so that action throughputs
// remain computable on the CTMC.
type CTMCResult struct {
	Chain *markov.CTMC
	// StateOf maps CTMC state -> original IMC state.
	StateOf []lts.State
	// IndexOf maps IMC state -> CTMC state (-1 for vanishing states).
	IndexOf []int
	// InitialDist is the initial distribution over CTMC states (the
	// initial IMC state may be vanishing and resolve probabilistically).
	InitialDist map[int]float64
	// Weights[label][i] is the expected number of `label` occurrences
	// per unit time contributed by state i's Markovian transitions;
	// throughput(label) = sum_i pi[i] * Weights[label][i].
	Weights map[string][]float64
}

// extractCheckEvery is the number of tangible states between cancellation
// checks and progress reports during CTMC extraction.
const extractCheckEvery = 1024

// ToCTMCCtx eliminates instantaneous transitions and returns the embedded
// CTMC. All interactive transitions are treated as urgent and
// instantaneous: tau by maximal progress, and visible labels as
// observation probes that fire as soon as offered (models should hide or
// delay anything they do not want to treat this way). sched may be nil,
// in which case any nondeterministic vanishing state yields
// *NondeterminismError. The tangible-state elimination loop checks ctx
// every extractCheckEvery states and reports progress (stage "extract").
func (m *IMC) ToCTMCCtx(ctx context.Context, sched Scheduler, progress engine.ProgressFunc) (*CTMCResult, error) {
	n := m.NumStates()
	if n == 0 {
		return nil, fmt.Errorf("imc: empty IMC")
	}
	vanishing := make([]bool, n)
	for s := 0; s < n; s++ {
		if m.HasInteractive(lts.State(s)) {
			vanishing[s] = true
		}
	}

	// resolve computes, for a state, the distribution over tangible
	// states reached by following instantaneous transitions, plus the
	// expected crossings of each visible label. Memoized; cycle
	// detection via color marks.
	type resolution struct {
		dist      map[lts.State]float64
		crossings map[string]float64
	}
	memo := make([]*resolution, n)
	color := make([]int8, n) // 0 white, 1 grey, 2 black
	var resolve func(s lts.State) (*resolution, error)
	resolve = func(s lts.State) (*resolution, error) {
		if !vanishing[s] {
			return &resolution{dist: map[lts.State]float64{s: 1}}, nil
		}
		if memo[s] != nil {
			return memo[s], nil
		}
		if color[s] == 1 {
			return nil, &ZenoError{s}
		}
		color[s] = 1
		labs, dsts := m.Inter.Out(s)
		var probs []float64
		if len(labs) == 1 {
			probs = []float64{1}
		} else if sched != nil {
			probs = sched.Choose(s, len(labs))
			if len(probs) != len(labs) {
				return nil, fmt.Errorf("imc: scheduler returned %d probabilities for %d alternatives", len(probs), len(labs))
			}
		} else {
			return nil, &NondeterminismError{s, len(labs)}
		}
		res := &resolution{dist: map[lts.State]float64{}, crossings: map[string]float64{}}
		for i, id := range labs {
			p := probs[i]
			if p == 0 {
				continue
			}
			lab := m.Inter.LabelName(int(id))
			if lab != lts.Tau {
				res.crossings[lab] += p
			}
			sub, err := resolve(lts.State(dsts[i]))
			if err != nil {
				return nil, err
			}
			for d, q := range sub.dist {
				res.dist[d] += p * q
			}
			for l, c := range sub.crossings {
				res.crossings[l] += p * c
			}
		}
		color[s] = 2
		memo[s] = res
		return res, nil
	}

	// Tangible states, in ascending order, become CTMC states.
	var stateOf []lts.State
	indexOf := make([]int, n)
	for s := 0; s < n; s++ {
		if vanishing[s] {
			indexOf[s] = -1
			continue
		}
		indexOf[s] = len(stateOf)
		stateOf = append(stateOf, lts.State(s))
	}
	if len(stateOf) == 0 {
		return nil, fmt.Errorf("imc: no tangible states (model is entirely instantaneous)")
	}

	chain := markov.NewCTMC(len(stateOf))
	weights := map[string][]float64{}
	addWeight := func(label string, i int, w float64) {
		vec, ok := weights[label]
		if !ok {
			vec = make([]float64, len(stateOf))
			weights[label] = vec
		}
		vec[i] += w
	}

	for ci, s := range stateOf {
		if ci%extractCheckEvery == 0 {
			if err := engine.Canceled(ctx); err != nil {
				return nil, fmt.Errorf("imc: extraction canceled at state %d of %d: %w", ci, len(stateOf), err)
			}
			progress.Report(engine.Progress{Stage: "extract", States: len(stateOf), Round: ci})
		}
		// Aggregate resolved Markovian moves.
		agg := map[int]float64{}
		var rerr error
		m.EachRateFrom(s, func(t MTransition) {
			if rerr != nil {
				return
			}
			res, err := resolve(t.Dst)
			if err != nil {
				rerr = err
				return
			}
			for d, q := range res.dist {
				agg[indexOf[d]] += t.Rate * q
			}
			for lab, c := range res.crossings {
				addWeight(lab, ci, t.Rate*c)
			}
		})
		if rerr != nil {
			return nil, rerr
		}
		dsts := make([]int, 0, len(agg))
		for d := range agg {
			dsts = append(dsts, d)
		}
		sort.Ints(dsts)
		for _, d := range dsts {
			if d == ci {
				continue
			}
			if err := chain.Add(ci, d, agg[d], ""); err != nil {
				return nil, err
			}
		}
	}

	initRes, err := resolve(m.Initial())
	if err != nil {
		return nil, err
	}
	initialDist := map[int]float64{}
	bestState, bestP := 0, -1.0
	for d, p := range initRes.dist {
		initialDist[indexOf[d]] = p
		if p > bestP {
			bestP = p
			bestState = indexOf[d]
		}
	}
	chain.SetInitial(bestState)

	return &CTMCResult{
		Chain:       chain,
		StateOf:     stateOf,
		IndexOf:     indexOf,
		InitialDist: initialDist,
		Weights:     weights,
	}, nil
}

// SteadyState solves the CTMC steady state (weighting multiple bottom
// components by the initial distribution is handled by the chain's
// initial state; for models whose initial state resolves
// probabilistically across different bottom components, combine manually
// using InitialDist).
func (r *CTMCResult) SteadyState() ([]float64, error) {
	return r.Chain.SteadyState(markov.SolveOptions{})
}

// TransientOpt computes the time-dependent state probabilities at time t
// ("steady-state or time-dependent state probabilities", paper §4),
// starting from the initial distribution (vanishing initial states
// resolve instantaneously at time zero). opts carries the solver
// worker count, cancellation and progress observer.
func (r *CTMCResult) TransientOpt(t float64, opts markov.SolveOptions) ([]float64, error) {
	// markov.Transient starts from a single state; combine linearly
	// over the initial distribution (the transient operator is linear
	// in the initial vector).
	saved := r.Chain.Initial()
	defer r.Chain.SetInitial(saved)
	n := r.Chain.NumStates()
	out := make([]float64, n)
	for s, p := range r.InitialDist {
		if p == 0 {
			continue
		}
		r.Chain.SetInitial(s)
		pi, err := r.Chain.Transient(t, opts)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] += p * pi[i]
		}
	}
	return out, nil
}

// ThroughputOf returns the steady-state occurrence rate of a visible
// label (crossings per unit time).
func (r *CTMCResult) ThroughputOf(pi []float64, label string) float64 {
	vec, ok := r.Weights[label]
	if !ok {
		return 0
	}
	total := 0.0
	for i, p := range pi {
		total += p * vec[i]
	}
	return total
}

// Labels returns the visible labels observed during elimination, sorted.
func (r *CTMCResult) Labels() []string {
	out := make([]string, 0, len(r.Weights))
	for l := range r.Weights {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// ThroughputBoundsEnum enumerates deterministic schedulers over the
// nondeterministic vanishing states (up to maxCombos combinations,
// default 4096) and returns the minimal and maximal steady-state
// throughput of the label. Exponential in the number of nondeterministic
// states, it survives as the exhaustive differential reference for the
// policy-iteration ThroughputBounds (see bounds.go); use it only on
// small models. Every extraction observes ctx.
func (m *IMC) ThroughputBoundsEnum(ctx context.Context, label string, maxCombos int) (min, max float64, err error) {
	if maxCombos <= 0 {
		maxCombos = 4096
	}
	// Find nondeterministic vanishing states.
	var ndStates []lts.State
	var ndArity []int
	for s := 0; s < m.NumStates(); s++ {
		if d := m.Inter.OutDegree(lts.State(s)); d > 1 {
			ndStates = append(ndStates, lts.State(s))
			ndArity = append(ndArity, d)
		}
	}
	combos := 1
	for _, a := range ndArity {
		combos *= a
		if combos > maxCombos {
			return 0, 0, fmt.Errorf("imc: %d scheduler combinations exceed limit %d", combos, maxCombos)
		}
	}
	first := true
	pick := make([]int, len(ndStates))
	for {
		sched := FixedScheduler{Pick: map[lts.State]int{}}
		for i, s := range ndStates {
			sched.Pick[s] = pick[i]
		}
		res, err := m.ToCTMCCtx(ctx, sched, nil)
		if err != nil {
			return 0, 0, err
		}
		pi, err := res.SteadyState()
		if err != nil {
			return 0, 0, err
		}
		thr := res.ThroughputOf(pi, label)
		if first || thr < min {
			min = thr
		}
		if first || thr > max {
			max = thr
		}
		first = false
		// Odometer: reset the trailing digits that are at their maximum,
		// then advance the next one (none left: every combination done).
		p := len(pick) - 1
		for ; p >= 0 && pick[p]+1 == ndArity[p]; p-- {
			pick[p] = 0
		}
		if p < 0 {
			break
		}
		pick[p]++
	}
	if first {
		return 0, 0, fmt.Errorf("imc: no scheduler combinations evaluated")
	}
	return min, max, nil
}
