package multival

// Tests of the engine-first API: lazy pipelines, context cancellation at
// round boundaries, cached CTMC artifacts (the counting-hook tests of the
// acceptance criteria), and the typed sentinel errors.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multival/internal/lts"
	"multival/internal/markov"
)

const twoBufferSpec = `
process Buf1 :=
    put ?x:0..1 ; mid !x ; Buf1
endproc
process Buf2 :=
    mid ?x:0..1 ; get !x ; Buf2
endproc
behaviour Buf1 |[mid]| Buf2
`

func ctxBg() context.Context { return context.Background() }

// TestPipelineEndToEnd drives compose -> sync -> hide -> minimize ->
// decorate -> lump -> solve through the declarative builder and checks
// the result against the known M/M/1/2 steady state.
func TestPipelineEndToEnd(t *testing.T) {
	eng := NewEngine()
	buf1, err := eng.FromLOTOS(ctxBg(), `
process Buf1 :=
    put ?x:0..1 ; mid !x ; Buf1
endproc
behaviour Buf1`)
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := eng.FromLOTOS(ctxBg(), `
process Buf2 :=
    mid ?x:0..1 ; get !x ; Buf2
endproc
behaviour Buf2`)
	if err != nil {
		t.Fatal(err)
	}

	ms, err := eng.Compose(buf1, buf2).
		Sync("mid").Hide("mid").
		Minimize(Branching).
		DecorateGateRates(map[string]float64{"put": 0.5, "get": 2}, "get").
		Lump().
		Solve(ctxBg())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range ms.Pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("pi sums to %g", sum)
	}
	// Total get throughput must equal total put throughput (flow
	// balance) and be positive.
	total := func(gate string) float64 {
		out := 0.0
		for lab, thr := range ms.Throughputs {
			if lts.Gate(lab) == gate {
				out += thr
			}
		}
		return out
	}
	if thr := total("get"); thr <= 0 {
		t.Fatalf("get throughput %g, want > 0", thr)
	}

	// The same pipeline without the perf suffix yields the functional
	// quotient, equivalent to the monolithic model.
	q, err := eng.Compose(buf1, buf2).Sync("mid").Hide("mid").Minimize(Branching).Model(ctxBg())
	if err != nil {
		t.Fatal(err)
	}
	mono, err := eng.FromLOTOS(ctxBg(), twoBufferSpec)
	if err != nil {
		t.Fatal(err)
	}
	monoHidden := mono.Hide("mid")
	cmp, err := eng.Compare(ctxBg(), q, monoHidden, Branching)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Equivalent {
		t.Fatal("pipeline quotient differs from monolithic composition")
	}
}

// TestPipelineStepOrderValidation rejects malformed step sequences.
func TestPipelineStepOrderValidation(t *testing.T) {
	eng := NewEngine()
	m, err := eng.FromLOTOS(ctxBg(), "process P := a ; P endproc behaviour P")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Compose(m).Lump().Perf(ctxBg()); err == nil {
		t.Fatal("Lump before decoration accepted")
	}
	if _, err := eng.Compose(m).DecorateRates(map[string]float64{"a": 1}).Minimize(Strong).Perf(ctxBg()); err == nil {
		t.Fatal("Minimize after decoration accepted")
	}
	if _, err := eng.Compose(m).DecorateRates(map[string]float64{"a": 1}).Model(ctxBg()); err == nil {
		t.Fatal("Model on a performance pipeline accepted")
	}
	if _, err := eng.Compose(m).Solve(ctxBg()); err == nil {
		t.Fatal("Solve without decoration accepted")
	}
	if _, err := eng.Compose().Model(ctxBg()); err == nil {
		t.Fatal("empty composition accepted")
	}
}

// bigComponents returns two components whose interleaved product is large
// (hundreds of thousands of tuples), for cancellation tests.
func bigComponents(eng *Engine) []*Model {
	rng := rand.New(rand.NewSource(42))
	mk := func() *Model {
		l := lts.Random(rng, lts.RandomConfig{States: 700, Labels: 6, Density: 2, Connect: true})
		return eng.FromLTS(l)
	}
	return []*Model{mk(), mk()}
}

// TestCancelMidComposition cancels the context from the progress callback
// once the product worklist has explored a few thousand states; the
// pipeline must abort within one worklist round and surface
// context.Canceled.
func TestCancelMidComposition(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	eng := NewEngine(
		WithMaxStates(1<<22),
		WithProgress(func(p Progress) {
			if p.Stage == "compose" && p.States >= 2048 {
				fired.Store(true)
				cancel()
			}
		}),
	)
	comps := bigComponents(eng)
	start := time.Now()
	_, err := eng.Compose(comps...).Model(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !fired.Load() {
		t.Fatal("progress hook never fired; product too small for the test")
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestCancelMidRefinement cancels from the progress callback during a
// refinement round; Minimize must return context.Canceled within one
// round.
func TestCancelMidRefinement(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	var once sync.Once
	eng := NewEngine(WithProgress(func(p Progress) {
		if p.Stage == "refine" && p.Round >= 1 {
			once.Do(func() {
				fired.Store(true)
				cancel()
			})
		}
	}))
	rng := rand.New(rand.NewSource(7))
	l := lts.Random(rng, lts.RandomConfig{States: 20_000, Labels: 4, Density: 3, TauProb: 0.2, Connect: true})
	_, err := eng.Minimize(ctx, eng.FromLTS(l), Branching)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !fired.Load() {
		t.Fatal("refinement finished before the hook fired")
	}
}

// TestDeadlineMidGeneration: an already-expired deadline aborts DSL
// generation at the first worklist boundary.
func TestDeadlineMidGeneration(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	eng := NewEngine()
	_, err := eng.FromLOTOS(ctx, twoBufferSpec)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestLumpCancellation covers the PerfModel.Lump failure path.
func TestLumpCancellation(t *testing.T) {
	eng := NewEngine()
	m, err := eng.FromLOTOS(ctxBg(), "process W := work_s ; work_e ; done ; W endproc behaviour W")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Decorate(Delay{Start: "work_s", End: "work_e", Dist: Exp(2)})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Lump(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Lump err = %v, want context.Canceled", err)
	}
	// The same model lumps fine with a live context (error path does
	// not poison the model).
	if _, err := p.Lump(ctxBg()); err != nil {
		t.Fatal(err)
	}
}

// TestMinimizeErrorPath covers the Model.Minimize failure path (satellite
// of the swallowed-error fix): a canceled context propagates instead of
// being discarded.
func TestMinimizeErrorPath(t *testing.T) {
	eng := NewEngine()
	m, err := eng.FromLOTOS(ctxBg(), twoBufferSpec)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Minimize(canceled, m, Branching); !errors.Is(err, context.Canceled) {
		t.Fatalf("Minimize err = %v, want context.Canceled", err)
	}
	if _, err := eng.Compare(canceled, m, m, Strong); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compare err = %v, want context.Canceled", err)
	}
}

// TestArtifactCaching is the counting-hook acceptance test: SteadyState +
// Transient + MeanTimeTo on one PerfModel perform exactly one
// maximal-progress pass and one base CTMC extraction (MeanTimeTo adds one
// cached redirected extraction), and repeated calls add none.
func TestArtifactCaching(t *testing.T) {
	eng := NewEngine()
	m, err := eng.FromLOTOS(ctxBg(), "process W := work_s ; work_e ; done ; W endproc behaviour W")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Decorate(Delay{Start: "work_s", End: "work_e", Dist: Exp(2)})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := p.SteadyState(ctxBg()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Transient(ctxBg(), 1.5); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MeanTimeTo(ctxBg(), "done"); err != nil {
		t.Fatal(err)
	}
	want := ArtifactStats{MaximalProgress: 1, Extractions: 1, Redirected: 1}
	if got := p.Artifacts(); got != want {
		t.Fatalf("after one round of measures: %+v, want %+v", got, want)
	}

	// A second round of every measure reuses every cached artifact.
	if _, err := p.SteadyState(ctxBg()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Transient(ctxBg(), 7.5); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MeanTimeTo(ctxBg(), "done"); err != nil {
		t.Fatal(err)
	}
	if got := p.Artifacts(); got != want {
		t.Fatalf("after two rounds of measures: %+v, want %+v", got, want)
	}

	// Measures computed through the caches agree with the known values.
	ms, err := p.SteadyState(ctxBg())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms.Throughputs["done"]-2) > 1e-8 {
		t.Fatalf("done throughput = %g, want 2", ms.Throughputs["done"])
	}
	lat, err := p.MeanTimeTo(ctxBg(), "done")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-0.5) > 1e-8 {
		t.Fatalf("first done at %g, want 0.5", lat)
	}
}

// TestTypedErrStateBound: exceeding the engine's state bound wraps
// ErrStateBound for both DSL generation and composition.
func TestTypedErrStateBound(t *testing.T) {
	eng := NewEngine(WithMaxStates(2))
	if _, err := eng.FromLOTOS(ctxBg(), twoBufferSpec); !errors.Is(err, ErrStateBound) {
		t.Fatalf("FromLOTOS err = %v, want ErrStateBound", err)
	}
	full := NewEngine()
	a, err := full.FromLOTOS(ctxBg(), "process P := a ; b ; P endproc behaviour P")
	if err != nil {
		t.Fatal(err)
	}
	b, err := full.FromLOTOS(ctxBg(), "process Q := c ; d ; Q endproc behaviour Q")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Compose(a, b).Model(ctxBg()); !errors.Is(err, ErrStateBound) {
		t.Fatalf("Compose err = %v, want ErrStateBound", err)
	}
}

// nondetModel: after one exponential delay the model offers two
// instantaneous alternatives — the shape the paper's solvers reject.
func nondetModel(t *testing.T, eng *Engine) *PerfModel {
	t.Helper()
	l := lts.New("nondet")
	l.AddStates(4)
	l.AddTransition(0, "work", 1)
	l.AddTransition(1, "left", 2)
	l.AddTransition(1, "right", 3)
	l.AddTransition(2, "tick", 2)
	l.AddTransition(3, "tick", 3)
	l.SetInitial(0)
	p, err := eng.FromLTS(l).DecorateRates(map[string]float64{"work": 1, "tick": 2})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTypedErrNondeterministic: extraction without a scheduler wraps
// ErrNondeterministic; configuring one resolves it.
func TestTypedErrNondeterministic(t *testing.T) {
	p := nondetModel(t, NewEngine())
	if _, err := p.SteadyState(ctxBg()); !errors.Is(err, ErrNondeterministic) {
		t.Fatalf("err = %v, want ErrNondeterministic", err)
	}
	resolved := nondetModel(t, NewEngine(WithScheduler(UniformScheduler{})))
	if _, err := resolved.SteadyState(ctxBg()); err != nil {
		t.Fatalf("uniform scheduler: %v", err)
	}
}

// TestTypedErrNotIrreducible: MeanTimeTo from a chain with a branch that
// can never reach the labeled transition wraps ErrNotIrreducible.
func TestTypedErrNotIrreducible(t *testing.T) {
	l := lts.New("split")
	l.AddStates(4)
	l.AddTransition(0, "go_l", 1)
	l.AddTransition(0, "go_r", 2)
	l.AddTransition(1, "tick_l", 3)
	l.AddTransition(3, "done", 1)
	l.AddTransition(2, "tick_r", 2)
	l.SetInitial(0)
	eng := NewEngine(WithScheduler(UniformScheduler{}))
	p, err := eng.FromLTS(l).DecorateRates(map[string]float64{"tick_l": 1, "tick_r": 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MeanTimeTo(ctxBg(), "done"); !errors.Is(err, ErrNotIrreducible) {
		t.Fatalf("err = %v, want ErrNotIrreducible", err)
	}
}

// TestTypedErrZeno: a hidden action cycle after a delay has no timed
// semantics and wraps ErrZeno.
func TestTypedErrZeno(t *testing.T) {
	l := lts.New("zeno")
	l.AddStates(3)
	l.AddTransition(0, "work", 1)
	l.AddTransition(1, "i", 2)
	l.AddTransition(2, "i", 1)
	l.SetInitial(0)
	p, err := NewEngine().FromLTS(l).DecorateRates(map[string]float64{"work": 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SteadyState(ctxBg()); !errors.Is(err, ErrZeno) {
		t.Fatalf("err = %v, want ErrZeno", err)
	}
}

// TestTypedErrNoConvergence: the solver's typed non-convergence error
// (what an exhausted iteration budget returns) classifies as
// ErrNoConvergence, as such and wrapped by a facade stage.
func TestTypedErrNoConvergence(t *testing.T) {
	var err error = &markov.ConvergenceError{Iterations: 1_000_000, Residual: 4.27, Method: "bicgstab", Fallback: "jacobi"}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if wrapped := fmt.Errorf("steady state: %w", err); !errors.Is(wrapped, ErrNoConvergence) {
		t.Fatalf("wrapped err = %v, want ErrNoConvergence", wrapped)
	}
}

// TestConcurrentOperandMinimization: a composition whose pipeline
// minimizes is pre-reduced per operand concurrently; the result must be
// equivalent to the monolithic compose-then-minimize.
func TestConcurrentOperandMinimization(t *testing.T) {
	eng := NewEngine()
	// Components with redundant tau structure so pre-minimization
	// actually shrinks them.
	mkComp := func(seed int64) *Model {
		rng := rand.New(rand.NewSource(seed))
		l := lts.Random(rng, lts.RandomConfig{States: 60, Labels: 3, Density: 2, TauProb: 0.4, Connect: true})
		return eng.FromLTS(l)
	}
	a, b := mkComp(1), mkComp(2)

	viaPipeline, err := eng.Compose(a, b).Sync("a").Minimize(Branching).Model(ctxBg())
	if err != nil {
		t.Fatal(err)
	}
	// Reference: compose as-is, then minimize.
	raw, err := eng.Compose(a, b).Sync("a").Model(ctxBg())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.Minimize(ctxBg(), raw, Branching)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := eng.Compare(ctxBg(), viaPipeline, ref, Branching)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Equivalent {
		t.Fatal("operand pre-minimization changed the behaviour")
	}
	if viaPipeline.States() != ref.States() {
		t.Fatalf("quotient sizes differ: %d vs %d", viaPipeline.States(), ref.States())
	}
}

// TestProgressReporting: the installed hook observes every stage of a
// full pipeline run.
func TestProgressReporting(t *testing.T) {
	var mu sync.Mutex
	stages := map[string]bool{}
	eng := NewEngine(WithProgress(func(p Progress) {
		mu.Lock()
		stages[p.Stage] = true
		mu.Unlock()
	}))
	m, err := eng.FromLOTOS(ctxBg(), twoBufferSpec)
	if err != nil {
		t.Fatal(err)
	}
	hidden := m.Hide("mid")
	if _, err := eng.Minimize(ctxBg(), hidden, Branching); err != nil {
		t.Fatal(err)
	}
	p, err := hidden.DecorateRates(map[string]float64{"put !0": 0.5, "put !1": 0.5, "get !0": 2, "get !1": 2})
	if err != nil {
		t.Fatal(err)
	}
	lumped, err := p.Lump(ctxBg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lumped.SteadyState(ctxBg()); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"generate", "refine", "lump"} {
		if !stages[stage] {
			t.Errorf("stage %q never reported (saw %v)", stage, stages)
		}
	}
}
