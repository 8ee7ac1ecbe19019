package xstream

import (
	"context"
	"math"
	"testing"

	"multival/internal/bisim"
	"multival/internal/compose"
	"multival/internal/lts"
	"multival/internal/markov"
	"multival/internal/mcl"
	"multival/internal/phasetype"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g", what, got, want)
	}
}

func TestCorrectQueueProperties(t *testing.T) {
	l, err := FunctionalModel(Config{Capacity: 3, Values: 2, Variant: Correct, WithFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	// Deadlock-free.
	if !mcl.MustCheck(context.Background(), l, mcl.DeadlockFree()) {
		t.Error("correct queue deadlocked")
	}
	// Overflow never happens.
	if !mcl.MustCheck(context.Background(), l, mcl.NeverEnabled(mcl.Action("overflow"))) {
		t.Error("correct queue overflowed")
	}
	// Every push is eventually followed by a pop... with flush enabled,
	// values can be legally discarded; check the weaker liveness: a pop
	// of each value remains reachable from the initial state.
	for _, lab := range []string{"pop !0", "pop !1"} {
		if !mcl.MustCheck(context.Background(), l, mcl.ReachableAction(mcl.Action(lab))) {
			t.Errorf("%s unreachable", lab)
		}
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	l, err := FunctionalModel(Config{Capacity: 2, Values: 2, Variant: Correct})
	if err != nil {
		t.Fatal(err)
	}
	// After push!0 then push!1 (from empty), pop!1 must not precede
	// pop!0. Determinize over visible push/pop (hide credit).
	h := l.HideLabels("credit")
	d := h.Determinize()
	s := d.Initial()
	walk := func(lab string) bool {
		id := d.LookupLabel(lab)
		if id < 0 {
			return false
		}
		succ := d.Successors(s, id)
		if len(succ) != 1 {
			return false
		}
		s = succ[0]
		return true
	}
	if !walk("push !0") || !walk("push !1") {
		t.Fatal("two pushes rejected")
	}
	if id := d.LookupLabel("pop !1"); id >= 0 && len(d.Successors(s, id)) > 0 {
		t.Fatal("FIFO order violated: pop !1 enabled before pop !0")
	}
	if !walk("pop !0") || !walk("pop !1") {
		t.Fatal("FIFO drain rejected")
	}
}

func TestCreditLeakDetected(t *testing.T) {
	// E1, first issue: the leaky flush starves the producer.
	l, err := FunctionalModel(Config{Capacity: 2, Values: 1, Variant: CreditLeak, WithFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcl.Verify(context.Background(), l, mcl.Reachable(mcl.Not(mcl.Dia(mcl.AnyAction(), mcl.True()))))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatal("credit leak did not create a reachable deadlock")
	}
	if len(res.Witness) == 0 {
		t.Fatal("no witness trace for the deadlock")
	}
	// The same check on the correct variant passes (no deadlock).
	good, err := FunctionalModel(Config{Capacity: 2, Values: 1, Variant: Correct, WithFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	if !mcl.MustCheck(context.Background(), good, mcl.DeadlockFree()) {
		t.Fatal("correct variant must be deadlock-free")
	}
}

func TestOptimisticPushOverflowDetected(t *testing.T) {
	// E1, second issue: the stale-observation push overflows.
	l, err := FunctionalModel(Config{Capacity: 2, Values: 1, Variant: OptimisticPush})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mcl.Verify(context.Background(), l, mcl.ReachableAction(mcl.Action("overflow")))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatal("optimistic push never overflowed")
	}
	if len(res.Witness) == 0 || res.Witness[len(res.Witness)-1] != "overflow" {
		t.Fatalf("witness = %v", res.Witness)
	}
}

func TestBuggyVariantsDifferFromCorrect(t *testing.T) {
	mk := func(v Variant, flush bool) *lts.LTS {
		l, err := FunctionalModel(Config{Capacity: 2, Values: 1, Variant: v, WithFlush: flush})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	if equivalent(mk(Correct, true), mk(CreditLeak, true), bisim.Branching) {
		t.Error("credit-leak variant should not be branching-equivalent to correct")
	}
	if equivalent(mk(Correct, false), mk(OptimisticPush, false), bisim.Trace) {
		t.Error("optimistic variant should not even be trace-equivalent (overflow label)")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Capacity: 0, Values: 1},
		{Capacity: 9, Values: 1},
		{Capacity: 2, Values: 0},
		{Capacity: 2, Values: 5},
	}
	for _, c := range bad {
		if _, err := FunctionalModel(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{
		Correct: "correct", CreditLeak: "credit-leak",
		OptimisticPush: "optimistic-push", Variant(9): "unknown",
	} {
		if v.String() != want {
			t.Errorf("Variant(%d).String() = %q", v, v.String())
		}
	}
}

func TestEvaluateMatchesAnalytic(t *testing.T) {
	for _, cfg := range []PerfConfig{
		{Capacity: 4, ArrivalRate: 1, ServiceRate: 2},
		{Capacity: 8, ArrivalRate: 3, ServiceRate: 2},
		{Capacity: 16, ArrivalRate: 2, ServiceRate: 2},
	} {
		res, err := Evaluate(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := AnalyticOccupancy(cfg)
		for i := range want {
			almost(t, res.Occupancy[i], want[i], 1e-8, "occupancy")
		}
		// Throughput: lambda * (1 - blocking) by flow balance.
		almost(t, res.Throughput, cfg.ArrivalRate*(1-res.Occupancy[cfg.Capacity]), 1e-8, "throughput")
		if res.MeanLatency <= 0 {
			t.Error("latency must be positive")
		}
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(context.Background(), PerfConfig{Capacity: 0, ArrivalRate: 1, ServiceRate: 1}); err == nil {
		t.Error("bad capacity accepted")
	}
	if _, err := Evaluate(context.Background(), PerfConfig{Capacity: 2, ArrivalRate: -1, ServiceRate: 1}); err == nil {
		t.Error("bad rate accepted")
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	var prev float64
	for i, lambda := range []float64{0.5, 1.0, 1.5, 1.9} {
		res, err := Evaluate(context.Background(), PerfConfig{Capacity: 8, ArrivalRate: lambda, ServiceRate: 2})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.MeanLatency <= prev {
			t.Errorf("latency did not grow with load: %g -> %g", prev, res.MeanLatency)
		}
		prev = res.MeanLatency
	}
}

func TestPipelinePerfThroughput(t *testing.T) {
	// A single stage equals the M/M/1/K throughput.
	lambda, mu := 1.0, 2.0
	thr, states, err := PipelinePerf(context.Background(), 1, 3, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PerfConfig{Capacity: 3, ArrivalRate: lambda, ServiceRate: mu}
	want := mu * (1 - AnalyticOccupancy(cfg)[0])
	almost(t, thr, want, 1e-8, "single-stage throughput")
	if states == 0 {
		t.Error("no states reported")
	}
	// Longer pipelines cannot increase throughput.
	thr2, _, err := PipelinePerf(context.Background(), 3, 3, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	if thr2 > thr+1e-9 {
		t.Errorf("3-stage throughput %g exceeds single-stage %g", thr2, thr)
	}
}

func TestValueQueueFIFO(t *testing.T) {
	q, err := ValueQueue("in", "out", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// (capacity 2 over 2 values): 1 + 2 + 4 = 7 states.
	if q.NumStates() != 7 {
		t.Fatalf("value queue has %d states, want 7", q.NumStates())
	}
	if !mcl.MustCheck(context.Background(), q, mcl.DeadlockFree()) {
		t.Error("value queue deadlocked")
	}
}

func TestPipelineNetworkSmartVsMono(t *testing.T) {
	net, err := PipelineNetwork(3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	mono, monoRep, err := compose_Monolithic(net)
	if err != nil {
		t.Fatal(err)
	}
	smart, smartRep, err := compose_Smart(net)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalent(mono, smart, bisim.Branching) {
		t.Fatal("smart reduction changed pipeline behaviour")
	}
	if smartRep.PeakStates > monoRep.PeakStates {
		t.Errorf("smart peak %d > mono peak %d", smartRep.PeakStates, monoRep.PeakStates)
	}
}

func TestValueQueueValidation(t *testing.T) {
	if _, err := ValueQueue("a", "b", 0, 2); err == nil {
		t.Error("bad capacity accepted")
	}
	if _, err := ValueQueue("a", "b", 2, 9); err == nil {
		t.Error("bad values accepted")
	}
	if _, err := PipelineNetwork(0, 1, 1); err == nil {
		t.Error("empty pipeline accepted")
	}
}

// Local aliases keep the test body uncluttered.
func compose_Monolithic(net *compose.Network) (*lts.LTS, *compose.Report, error) {
	return compose.MonolithicCtx(context.Background(), net, bisim.Branching, bisim.Options{})
}

func compose_Smart(net *compose.Network) (*lts.LTS, *compose.Report, error) {
	return compose.SmartReduceCtx(context.Background(), net, bisim.Branching, bisim.Options{})
}

// equivalent is bisim.EquivalentCtx without cancellation.
func equivalent(a, b *lts.LTS, rel bisim.Relation) bool {
	eq, err := bisim.EquivalentCtx(context.Background(), a, b, rel, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return eq
}

func TestPhaseServiceMatchesExponential(t *testing.T) {
	// With a 1-phase (exponential) service, the flow must agree with
	// the M/M/1/K closed form.
	lambda, mu := 1.5, 2.0
	capacity := 5
	res, err := EvaluatePhaseService(context.Background(), capacity, lambda, phasetype.Exp(mu))
	if err != nil {
		t.Fatal(err)
	}
	analytic := AnalyticOccupancy(PerfConfig{Capacity: capacity, ArrivalRate: lambda, ServiceRate: mu})
	wantBlocking := analytic[capacity]
	almost(t, res.Blocking, wantBlocking, 1e-6, "M/M/1/K blocking via phase flow")
	almost(t, res.Throughput, lambda*(1-wantBlocking), 1e-6, "M/M/1/K throughput via phase flow")
}

func TestPhaseServiceAgainstHandBuiltChain(t *testing.T) {
	// M/E2/1/K: validate the compositional flow against a hand-built
	// (occupancy, phase) CTMC.
	lambda, mu := 1.5, 2.0
	k, capacity := 2, 4
	dist, err := phasetype.FitFixedDelay(1/mu, k) // Erlang-2, mean 1/mu
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluatePhaseService(context.Background(), capacity, lambda, dist)
	if err != nil {
		t.Fatal(err)
	}

	// Hand-built chain: state = n*(k)+phase for n>=1 (phase 0..k-1
	// of the item in service), plus the empty state.
	phaseRate := float64(k) * mu
	idx := func(n, ph int) int { return 1 + (n-1)*k + ph }
	total := 1 + capacity*k
	c := markov.NewCTMC(total)
	// Arrivals.
	for n := 0; n < capacity; n++ {
		if n == 0 {
			c.MustAdd(0, idx(1, 0), lambda, "arr")
			continue
		}
		for ph := 0; ph < k; ph++ {
			c.MustAdd(idx(n, ph), idx(n+1, ph), lambda, "arr")
		}
	}
	// Service phases and departures.
	for n := 1; n <= capacity; n++ {
		for ph := 0; ph < k; ph++ {
			if ph < k-1 {
				c.MustAdd(idx(n, ph), idx(n, ph+1), phaseRate, "")
				continue
			}
			if n == 1 {
				c.MustAdd(idx(1, k-1), 0, phaseRate, "dep")
			} else {
				c.MustAdd(idx(n, k-1), idx(n-1, 0), phaseRate, "dep")
			}
		}
	}
	pi, err := c.SteadyState(markov.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantThr := c.Throughput(pi, func(l string) bool { return l == "dep" })
	almost(t, res.Throughput, wantThr, 1e-6, "M/E2/1/K throughput")
}

func TestLowerServiceVariabilityReducesBlocking(t *testing.T) {
	// At the same mean service time and load, Erlang-4 service (scv
	// 0.25) blocks less than exponential service (scv 1).
	lambda, mu := 1.8, 2.0
	capacity := 4
	expRes, err := EvaluatePhaseService(context.Background(), capacity, lambda, phasetype.Exp(mu))
	if err != nil {
		t.Fatal(err)
	}
	erl, err := phasetype.FitFixedDelay(1/mu, 4)
	if err != nil {
		t.Fatal(err)
	}
	erlRes, err := EvaluatePhaseService(context.Background(), capacity, lambda, erl)
	if err != nil {
		t.Fatal(err)
	}
	if erlRes.Blocking >= expRes.Blocking {
		t.Errorf("Erlang-4 blocking %g should be below exponential %g",
			erlRes.Blocking, expRes.Blocking)
	}
	if erlRes.CTMCStates <= expRes.CTMCStates {
		t.Errorf("Erlang-4 chain (%d states) should be larger than exponential (%d)",
			erlRes.CTMCStates, expRes.CTMCStates)
	}
}

func TestPhaseServiceValidation(t *testing.T) {
	if _, err := EvaluatePhaseService(context.Background(), 0, 1, phasetype.Exp(1)); err == nil {
		t.Error("bad capacity accepted")
	}
	if _, err := EvaluatePhaseService(context.Background(), 2, -1, phasetype.Exp(1)); err == nil {
		t.Error("bad lambda accepted")
	}
}
