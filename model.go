package multival

import (
	"context"

	"multival/internal/bisim"
	"multival/internal/imc"
	"multival/internal/lotos"
	"multival/internal/lts"
	"multival/internal/mcl"
)

// CompareResult re-exports the outcome of an equivalence comparison:
// the relation, the verdict, and a distinguishing trace when one exists.
type CompareResult = bisim.CompareResult

// Engine is the entry point of the redesigned API: it owns the Options
// (worker counts, state bounds, scheduler, progress observer) and
// threads them — together with the caller's context.Context — through
// every operation. Construct one with NewEngine; an Engine is immutable
// and safe for concurrent use.
//
// Models and pipelines created through an Engine inherit its options, so
// a service configures workers and bounds once instead of plumbing them
// through every call site.
type Engine struct {
	opts Options
}

// NewEngine builds an Engine from functional options:
//
//	eng := multival.NewEngine(
//	    multival.WithWorkers(8),
//	    multival.WithMaxStates(1<<22),
//	    multival.WithProgress(logProgress),
//	)
func NewEngine(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(&e.opts)
	}
	return e
}

// Options returns a copy of the engine's configuration. A nil engine has
// the zero Options, so a Model or PerfModel built as a literal (without an
// engine) runs with the package defaults.
func (e *Engine) Options() Options {
	if e == nil {
		return Options{}
	}
	return e.opts
}

// With returns a derived engine: a copy of e's options with opts applied
// on top. The receiver is unchanged, so a long-lived service derives
// per-request engines (request workers, deadline-scoped progress hooks, a
// request scheduler) from one shared base engine without mutating — or
// racing on — the base engine's Options.
func (e *Engine) With(opts ...Option) *Engine {
	d := &Engine{opts: e.Options()}
	for _, o := range opts {
		o(&d.opts)
	}
	return d
}

// Model is a functional model: an LTS plus the operations of the
// verification flow. Models remember the Engine that created them, so
// Decorate and DecorateRates run with that engine's options; a literal
// &Model{L: l} runs with the zero Options.
type Model struct {
	L *lts.LTS

	eng *Engine
}

// FromLOTOS parses a specification in the LOTOS-like DSL (see
// internal/lotos) and generates its state space, bounded by the engine's
// MaxStates (exceeding it wraps ErrStateBound) and abortable through ctx
// (generation checks cancellation mid-worklist).
func (e *Engine) FromLOTOS(ctx context.Context, src string) (*Model, error) {
	sys, err := lotos.Parse(src)
	if err != nil {
		return nil, err
	}
	l, err := sys.GenerateCtx(ctx, e.Options().gen())
	if err != nil {
		return nil, err
	}
	return &Model{L: l, eng: e}, nil
}

// FromLTS wraps an existing LTS.
func (e *Engine) FromLTS(l *lts.LTS) *Model { return &Model{L: l, eng: e} }

// States returns the number of states.
func (m *Model) States() int { return m.L.NumStates() }

// Transitions returns the number of transitions.
func (m *Model) Transitions() int { return m.L.NumTransitions() }

// Hash returns the canonical content digest of the model: the SHA-256 of
// its frozen CSR form (see lts.Frozen.Hash), invariant under transition
// insertion order and label interning order. Behaviourally identical
// builds hash identically, which makes the digest a content address for
// caching derived artifacts (quotients, extracted CTMCs, solutions)
// across requests. The digest reflects the LTS at call time; it is
// recomputed per call, so hash once and reuse the string when keying.
func (m *Model) Hash() string { return m.L.Freeze().Hash() }

// Minimize returns the quotient of the model modulo rel, computed by the
// engine with ctx observed at every refinement round boundary.
func (e *Engine) Minimize(ctx context.Context, m *Model, rel Relation) (*Model, error) {
	q, _, err := bisim.MinimizeCtx(ctx, m.L, rel, e.Options().bisim())
	if err != nil {
		return nil, err
	}
	return &Model{L: q, eng: e}, nil
}

// Hide replaces the labels of the given gates by the internal action.
func (m *Model) Hide(gates ...string) *Model {
	set := map[string]bool{}
	for _, g := range gates {
		set[g] = true
	}
	return &Model{L: m.L.Hide(func(label string) bool {
		return set[lts.Gate(label)]
	}), eng: m.eng}
}

// Check parses a mu-calculus formula (internal/mcl syntax) and evaluates
// it on the model's initial state. The check runs to completion: use
// mcl.Verify with the model's LTS to bound it by a context.
func (m *Model) Check(formula string) (mcl.Result, error) {
	f, err := mcl.Parse(formula)
	if err != nil {
		return mcl.Result{}, err
	}
	return mcl.Verify(context.Background(), m.L, f)
}

// CheckDeadlockFree verifies absence of reachable deadlocks. Like Check,
// it runs to completion.
func (m *Model) CheckDeadlockFree() (mcl.Result, error) {
	return mcl.Verify(context.Background(), m.L, mcl.DeadlockFree())
}

// Compare checks two models for equivalence modulo rel, observing ctx at
// every refinement round, with a distinguishing trace when trace sets
// differ.
func (e *Engine) Compare(ctx context.Context, a, b *Model, rel Relation) (CompareResult, error) {
	return bisim.CompareCtx(ctx, a.L, b.L, rel, e.Options().bisim())
}

// Decorate attaches phase-type delays compositionally (synchronizing
// delay processes on the start/end gates, then hiding them). The
// resulting PerfModel shares the model's engine and caches its derived
// CTMC artifacts; see PerfModel.
func (m *Model) Decorate(delays ...Delay) (*PerfModel, error) {
	im, err := imc.Decorate(m.L, delays, m.eng.Options().MaxStates)
	if err != nil {
		return nil, err
	}
	return newPerfModel(im, m.eng), nil
}

// DecorateRates replaces each listed label by an exponential delay of the
// given rate (the paper's "direct" decoration).
func (m *Model) DecorateRates(rates map[string]float64) (*PerfModel, error) {
	im, err := imc.DecorateRates(m.L, rates)
	if err != nil {
		return nil, err
	}
	return newPerfModel(im, m.eng), nil
}
