package multival

import (
	"context"
	"math"
	"strings"
	"testing"

	"multival/internal/imc"
	"multival/internal/lts"
)

const bufferSpec = `
process Buf :=
    put ?x:0..1 ; get !x ; Buf
endproc
behaviour Buf
`

func TestFromLOTOSAndCheck(t *testing.T) {
	m, err := NewEngine().FromLOTOS(ctxBg(), bufferSpec)
	if err != nil {
		t.Fatal(err)
	}
	if m.States() == 0 || m.Transitions() == 0 {
		t.Fatal("empty model")
	}
	res, err := m.CheckDeadlockFree()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatal("buffer deadlocked")
	}
	res, err = m.Check(`mu X . (<"get !1"> true or <true> X)`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatal("get !1 unreachable")
	}
	if _, err := m.Check("((("); err == nil {
		t.Fatal("bad formula accepted")
	}
}

func TestMinimizeAndEquivalence(t *testing.T) {
	m, err := NewEngine().FromLOTOS(ctxBg(), bufferSpec)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	q, err := eng.Minimize(ctxBg(), m, Branching)
	if err != nil {
		t.Fatal(err)
	}
	if q.States() > m.States() {
		t.Fatal("minimization grew the model")
	}
	cmp, err := eng.Compare(ctxBg(), m, q, Branching)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Equivalent {
		t.Fatal("quotient not equivalent")
	}
	// A different buffer (values 0..2) is not equivalent.
	other, err := NewEngine().FromLOTOS(ctxBg(), strings.Replace(bufferSpec, "0..1", "0..2", 1))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err = eng.Compare(ctxBg(), m, other, Trace)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Equivalent {
		t.Fatal("different buffers reported equivalent")
	}
	if len(cmp.Counterexample) == 0 {
		t.Fatal("no counterexample")
	}
}

func TestHide(t *testing.T) {
	m, err := NewEngine().FromLOTOS(ctxBg(), bufferSpec)
	if err != nil {
		t.Fatal(err)
	}
	h := m.Hide("get")
	res, err := h.Check(`<"get !0"> true`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("hidden gate still visible")
	}
}

const workSpec = `
process Work :=
    work_s ; work_e ; done ; Work
endproc
behaviour Work
`

func TestPerformanceFlow(t *testing.T) {
	m, err := NewEngine().FromLOTOS(ctxBg(), workSpec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Decorate(Delay{Start: "work_s", End: "work_e", Dist: Exp(2)})
	if err != nil {
		t.Fatal(err)
	}
	lumped, err := p.Lump(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lumped.States() > p.States() {
		t.Fatal("lumping grew the IMC")
	}
	ms, err := lumped.SteadyState(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	thr := ms.Throughputs["done"]
	if math.Abs(thr-2) > 1e-8 {
		t.Fatalf("done throughput = %g, want 2", thr)
	}
}

func TestDecorateRatesFlow(t *testing.T) {
	m, err := NewEngine().FromLOTOS(ctxBg(), bufferSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Hide values first: decorate exact labels.
	p, err := m.DecorateRates(map[string]float64{
		"put !0": 0.5, "put !1": 0.5, "get !0": 2, "get !1": 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := p.SteadyState(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, pr := range ms.Pi {
		sum += pr
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("pi sums to %g", sum)
	}
}

func TestMeanTimeTo(t *testing.T) {
	m, err := NewEngine().FromLOTOS(ctxBg(), workSpec)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	dist, err := FixedDelay(0.5, k)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Decorate(Delay{Start: "work_s", End: "work_e", Dist: dist})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := p.MeanTimeTo(context.Background(), "done")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-0.5) > 1e-8 {
		t.Fatalf("first done after %g, want 0.5", lat)
	}
	if _, err := p.MeanTimeTo(context.Background(), "nope"); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func TestErlangHelper(t *testing.T) {
	e := Erlang(4, 8)
	if math.Abs(e.Mean()-0.5) > 1e-9 {
		t.Fatalf("Erlang mean = %g", e.Mean())
	}
	if _, err := FixedDelay(-1, 2); err == nil {
		t.Fatal("bad delay accepted")
	}
}

func TestThroughputBoundsFacade(t *testing.T) {
	// The E7 fast/slow server: a request arrives, a tau choice picks the
	// fast (rate 4) or slow (rate 0.5) path, and "served" completes.
	nd := imc.New("nd-server")
	idle := nd.AddState()
	choice := nd.AddState()
	fast := nd.AddState()
	slow := nd.AddState()
	fdone := nd.AddState()
	sdone := nd.AddState()
	nd.MustAddRate(idle, choice, 1)
	nd.AddInteractive(choice, lts.Tau, fast)
	nd.AddInteractive(choice, lts.Tau, slow)
	nd.MustAddRate(fast, fdone, 4)
	nd.MustAddRate(slow, sdone, 0.5)
	nd.AddInteractive(fdone, "served", idle)
	nd.AddInteractive(sdone, "served", idle)
	nd.Inter.SetInitial(idle)

	for _, workers := range []int{0, 4} {
		p := newPerfModel(nd, NewEngine(WithWorkers(workers)))
		lo, hi, err := p.ThroughputBounds(context.Background(), "served")
		if err != nil {
			t.Fatal(err)
		}
		wantLo, wantHi, err := nd.ThroughputBoundsEnum(ctxBg(), "served", 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lo-wantLo) > 1e-8 || math.Abs(hi-wantHi) > 1e-8 {
			t.Fatalf("workers=%d: bounds [%g, %g], enumeration [%g, %g]", workers, lo, hi, wantLo, wantHi)
		}
		// Cached second query must agree.
		lo2, hi2, err := p.ThroughputBounds(context.Background(), "served")
		if err != nil || lo2 != lo || hi2 != hi {
			t.Fatalf("cached bounds [%g, %g] (err %v), want [%g, %g]", lo2, hi2, err, lo, hi)
		}
	}
}

// TestEngineWith: a derived engine overrides options without mutating
// (or aliasing) the base engine's.
func TestEngineWith(t *testing.T) {
	base := NewEngine(WithWorkers(2), WithMaxStates(100), WithScheduler(UniformScheduler{}))
	derived := base.With(WithWorkers(8), WithProgress(func(Progress) {}))

	if got := derived.Options(); got.Workers != 8 || got.MaxStates != 100 || got.Scheduler != (UniformScheduler{}) || got.Progress == nil {
		t.Fatalf("derived options = %+v; want workers 8 inheriting max-states/scheduler and a progress hook", got)
	}
	if got := base.Options(); got.Workers != 2 || got.Progress != nil {
		t.Fatalf("base options mutated by With: %+v", got)
	}
	// A derived engine of a nil receiver falls back to the defaults.
	var nilEng *Engine
	if got := nilEng.With(WithWorkers(3)).Options(); got.Workers != 3 {
		t.Fatalf("nil base: %+v", got)
	}
	// Derived engines drive pipelines exactly like constructed ones.
	m, err := NewEngine().FromLOTOS(ctxBg(), bufferSpec)
	if err != nil {
		t.Fatal(err)
	}
	bounded := base.With(WithMaxStates(1))
	if _, err := bounded.Compose(m.Hide("put"), m).Sync("get").Model(context.Background()); err == nil {
		t.Fatal("derived 1-state bound did not trip")
	}
}

// TestModelLiteralZeroOptions: without a package-level engine, a Model
// built as a literal runs with the zero Options (package defaults), from
// decoration through the solvers.
func TestModelLiteralZeroOptions(t *testing.T) {
	if got := (*Engine)(nil).Options(); got.Workers != 0 || got.MaxStates != 0 || got.Progress != nil {
		t.Fatalf("nil engine options = %+v, want zero", got)
	}
	m, err := NewEngine().FromLOTOS(ctxBg(), workSpec)
	if err != nil {
		t.Fatal(err)
	}
	lit := &Model{L: m.L}
	p, err := lit.DecorateRates(map[string]float64{"work_s": 1, "work_e": 2})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := p.SteadyState(ctxBg())
	if err != nil {
		t.Fatal(err)
	}
	// One cycle takes 1 + 1/2 = 3/2 time units; done is instantaneous.
	if thr := ms.Throughputs["done"]; math.Abs(thr-2.0/3) > 1e-9 {
		t.Fatalf("done throughput = %g, want 2/3", thr)
	}
}

// TestModelHash: the facade digest is stable across behaviourally
// identical builds and distinguishes different behaviours.
func TestModelHash(t *testing.T) {
	a, err := NewEngine().FromLOTOS(ctxBg(), bufferSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine().FromLOTOS(ctxBg(), bufferSpec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == "" || a.Hash() != b.Hash() {
		t.Fatalf("identical builds hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if h := a.Hide("get").Hash(); h == a.Hash() {
		t.Fatal("hiding a gate did not change the hash")
	}
}
