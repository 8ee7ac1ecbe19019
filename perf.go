package multival

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"multival/internal/imc"
	"multival/internal/lts"
)

// PerfModel is a performance model: an IMC plus the operations of the
// evaluation flow.
//
// A PerfModel caches its derived artifacts — the maximal-progress IMC and
// the extracted CTMC — so SteadyState, Transient and MeanTimeTo share one
// maximal-progress pass and one CTMC extraction instead of recomputing
// them per call (MeanTimeTo additionally caches one redirected extraction
// per queried label). Artifacts reports the cache counters; the methods
// are safe for concurrent use, serializing on an internal lock. A
// Progress callback runs while that lock is held, so it must not call
// the measure methods of the same PerfModel (Artifacts is safe: it reads
// lock-free counters).
type PerfModel struct {
	M *imc.IMC

	eng *Engine

	mu     sync.Mutex
	mp     *imc.IMC              // cached maximal-progress form
	base   *imc.CTMCResult       // cached CTMC extraction of mp
	fpt    map[string]float64    // cached MeanTimeTo results per label
	bounds map[string][2]float64 // cached ThroughputBounds per label

	// Artifact counters, read by Artifacts without taking mu so
	// progress callbacks may observe them mid-operation.
	nMaxProgress atomic.Int64
	nExtractions atomic.Int64
	nRedirected  atomic.Int64
}

// ArtifactStats counts the derived-artifact computations a PerfModel has
// performed; the counting hook behind the "exactly one extraction" tests.
type ArtifactStats struct {
	// MaximalProgress is the number of maximal-progress passes (1 after
	// any measure has been computed, however many times).
	MaximalProgress int
	// Extractions is the number of base CTMC extractions shared by
	// SteadyState, Transient and MeanTimeTo.
	Extractions int
	// Redirected is the number of per-label first-passage extractions
	// (at most one per distinct MeanTimeTo label).
	Redirected int
}

func newPerfModel(im *imc.IMC, eng *Engine) *PerfModel {
	return &PerfModel{
		M:      im,
		eng:    eng,
		fpt:    map[string]float64{},
		bounds: map[string][2]float64{},
	}
}

// States returns the number of IMC states.
func (p *PerfModel) States() int { return p.M.NumStates() }

// Artifacts returns the derived-artifact counters. It is lock-free, so
// it may be called from Progress callbacks running inside a measure.
func (p *PerfModel) Artifacts() ArtifactStats {
	return ArtifactStats{
		MaximalProgress: int(p.nMaxProgress.Load()),
		Extractions:     int(p.nExtractions.Load()),
		Redirected:      int(p.nRedirected.Load()),
	}
}

// Lump minimizes the IMC modulo strong Markovian bisimulation, observing
// ctx at every refinement round. The result is a fresh PerfModel with
// empty artifact caches.
func (p *PerfModel) Lump(ctx context.Context) (*PerfModel, error) {
	opts := p.eng.Options()
	q, _, err := p.M.LumpCtx(ctx, opts.Progress)
	if err != nil {
		return nil, err
	}
	return newPerfModel(q, p.eng), nil
}

// maximalProgress returns the cached maximal-progress IMC, computing it
// on first use. Callers must hold p.mu.
func (p *PerfModel) maximalProgress() *imc.IMC {
	if p.mp == nil {
		p.mp = p.M.MaximalProgress()
		p.nMaxProgress.Add(1)
	}
	return p.mp
}

// extraction returns the cached CTMC extraction of the maximal-progress
// IMC, computing it on first use. Callers must hold p.mu.
func (p *PerfModel) extraction(ctx context.Context) (*imc.CTMCResult, error) {
	if p.base == nil {
		opts := p.eng.Options()
		res, err := p.maximalProgress().ToCTMCCtx(ctx, opts.Scheduler, opts.Progress)
		if err != nil {
			return nil, err
		}
		p.base = res
		p.nExtractions.Add(1)
	}
	return p.base, nil
}

// Measures holds the results of one performance query.
type Measures struct {
	// Pi is the (steady-state or transient) distribution over CTMC
	// states.
	Pi []float64
	// Throughputs maps each visible label to its occurrence rate.
	Throughputs map[string]float64
	// CTMCStates is the size of the solved chain.
	CTMCStates int
	// StateOf maps each CTMC state back to the IMC state it represents.
	StateOf []int
}

func measuresFrom(res *imc.CTMCResult, pi []float64) *Measures {
	ms := &Measures{
		Pi:          pi,
		Throughputs: map[string]float64{},
		CTMCStates:  res.Chain.NumStates(),
		StateOf:     make([]int, len(res.StateOf)),
	}
	for i, s := range res.StateOf {
		ms.StateOf[i] = int(s)
	}
	for _, lab := range res.Labels() {
		ms.Throughputs[lab] = res.ThroughputOf(pi, lab)
	}
	return ms
}

// SteadyState runs maximal progress, CTMC extraction (rejecting
// nondeterminism with ErrNondeterministic unless a scheduler is
// configured) and the steady-state solver, reusing the cached artifacts
// when present. ctx is observed at extraction and solver round
// boundaries.
func (p *PerfModel) SteadyState(ctx context.Context) (*Measures, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, err := p.extraction(ctx)
	if err != nil {
		return nil, err
	}
	solve := p.eng.Options().solve()
	solve.Ctx = ctx
	pi, err := res.Chain.SteadyState(solve)
	if err != nil {
		return nil, err
	}
	return measuresFrom(res, pi), nil
}

// Transient computes the time-dependent distribution over CTMC states at
// time t, plus the per-label throughput at that instant, on the same
// cached extraction SteadyState uses. The second member of the paper's
// "steady-state or time-dependent state probabilities and transition
// throughputs".
func (p *PerfModel) Transient(ctx context.Context, t float64) (*Measures, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	res, err := p.extraction(ctx)
	if err != nil {
		return nil, err
	}
	solve := p.eng.Options().solve()
	solve.Ctx = ctx
	pi, err := res.TransientOpt(t, solve)
	if err != nil {
		return nil, err
	}
	return measuresFrom(res, pi), nil
}

// MeanTimeTo computes the expected time until a transition carrying the
// exact label first fires, from the initial state: the latency measure
// used for the FAME2 MPI predictions. The computation is exact: the
// labeled transitions are redirected to a fresh absorbing state before
// CTMC extraction, and the expected absorption time is solved. The
// redirection starts from the cached maximal-progress IMC, and the result
// is cached per label, so repeated queries perform no further extraction.
func (p *PerfModel) MeanTimeTo(ctx context.Context, label string) (float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.fpt[label]; ok {
		return v, nil
	}
	mp := p.maximalProgress()

	// Redirect every `label` transition to a fresh absorbing state.
	redirected := imc.New(mp.Name() + ".fpt")
	redirected.Inter.AddStates(mp.NumStates())
	goal := redirected.AddState()
	found := false
	mp.Inter.EachTransition(func(t lts.Transition) {
		lab := mp.Inter.LabelName(t.Label)
		if lab == label {
			found = true
			redirected.AddInteractive(t.Src, lab, goal)
			return
		}
		redirected.AddInteractive(t.Src, lab, t.Dst)
	})
	if !found {
		return 0, fmt.Errorf("multival: label %q never occurs", label)
	}
	redirected.AppendMarkov(mp.Markov)
	redirected.Inter.SetInitial(mp.Initial())

	opts := p.eng.Options()
	res, err := redirected.ToCTMCCtx(ctx, opts.Scheduler, opts.Progress)
	if err != nil {
		return 0, err
	}
	gi := res.IndexOf[goal]
	if gi < 0 {
		return 0, fmt.Errorf("multival: goal state eliminated (label %q instantaneous from the start?)", label)
	}
	solve := opts.solve()
	solve.Ctx = ctx
	h, err := res.Chain.ExpectedTimeToAbsorption([]int{gi}, solve)
	if err != nil {
		return 0, err
	}
	// Weight by the initial distribution (the initial state may resolve
	// probabilistically).
	total := 0.0
	for s, pr := range res.InitialDist {
		total += pr * h[s]
	}
	// Count and cache only on success, so Artifacts().Redirected keeps
	// its at-most-one-per-label invariant across failed retries.
	p.nRedirected.Add(1)
	p.fpt[label] = total
	return total, nil
}

// ThroughputBounds bounds the steady-state occurrence rate of the label
// over all memoryless deterministic resolutions of the model's internal
// nondeterminism, by average-reward policy iteration on the cached
// maximal-progress IMC (no scheduler option is needed — every
// deterministic resolution is explored). On a model without
// nondeterminism both bounds coincide with the single scheduler's
// throughput. The result is cached per label. ctx is observed at solver
// round boundaries.
func (p *PerfModel) ThroughputBounds(ctx context.Context, label string) (lo, hi float64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.bounds[label]; ok {
		return b[0], b[1], nil
	}
	solve := p.eng.Options().solve()
	solve.Ctx = ctx
	lo, hi, err = p.maximalProgress().ThroughputBounds(label, solve)
	if err != nil {
		return 0, 0, err
	}
	p.bounds[label] = [2]float64{lo, hi}
	return lo, hi, nil
}
