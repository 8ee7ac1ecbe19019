package multival

// Integration tests spanning the whole flow: DSL/CHP front-ends through
// generation, serialization, minimization, model checking, decoration,
// and Markov solving — the end-to-end paths a user of the library takes.

import (
	"context"
	"math"
	"strings"
	"testing"

	"multival/internal/aut"
	"multival/internal/bisim"
	"multival/internal/chp"
	"multival/internal/faust"
	"multival/internal/imc"
	"multival/internal/lotos"
	"multival/internal/mcl"
	"multival/internal/phasetype"
	"multival/internal/process"
	"multival/internal/xstream"
)

// TestFullVerificationPipeline: DSL -> LTS -> .aut -> reload -> minimize
// -> model-check, with every intermediate artifact consistent.
func TestFullVerificationPipeline(t *testing.T) {
	src := `
	process Sender :=
	    req !1 ; ack ; Sender
	endproc
	process Receiver :=
	    req ?x:0..1 ; work ; ack ; Receiver
	endproc
	behaviour
	    hide req, ack in (Sender |[req, ack]| Receiver)
	`
	sys, err := lotos.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	l, err := sys.GenerateCtx(context.Background(), process.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Serialize and reload.
	text := aut.WriteString(l)
	reloaded, err := aut.ReadString(text)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalent(l, reloaded, bisim.Strong) {
		t.Fatal("serialization changed behaviour")
	}

	// Minimize: the protocol is a simple work loop; its branching
	// quotient is a single-action cycle.
	q, _ := minimize(reloaded, bisim.Branching)
	if q.NumStates() > l.NumStates() {
		t.Fatal("minimization grew")
	}
	if !mcl.MustCheck(q, mcl.DeadlockFree()) {
		t.Fatal("protocol deadlocked")
	}
	if !mcl.MustCheck(q, mcl.Response(mcl.Action("work"), mcl.Action("work"))) {
		t.Fatal("work does not recur")
	}
}

// TestFullPerformancePipeline: DSL -> decorate (phase-type via facade) ->
// lump -> steady state + transient + first-passage, with Little's-law
// consistency.
func TestFullPerformancePipeline(t *testing.T) {
	m, err := NewEngine().FromLOTOS(ctxBg(), `
	process Station :=
	    job_s ; job_e ; done ; Station
	endproc
	behaviour Station
	`)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := FixedDelay(0.25, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Decorate(Delay{Start: "job_s", End: "job_e", Dist: dist})
	if err != nil {
		t.Fatal(err)
	}
	lumped, err := p.Lump(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := lumped.SteadyState(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms.Throughputs["done"]-4) > 1e-8 {
		t.Fatalf("done throughput = %v", ms.Throughputs["done"])
	}
	// First passage to the first done = one service time.
	lat, err := p.MeanTimeTo(context.Background(), "done")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-0.25) > 1e-8 {
		t.Fatalf("first done at %g, want 0.25", lat)
	}
	// Transient converges to steady state.
	late, err := p.Transient(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(late.Throughputs["done"]-4) > 1e-4 {
		t.Fatalf("transient throughput at t=50: %v", late.Throughputs["done"])
	}
}

// TestCHPToVerificationToPerformance: a CHP pipeline crosses the whole
// stack: translation, generation, compositional comparison, decoration.
func TestCHPToVerificationToPerformance(t *testing.T) {
	// CHP producer/consumer.
	prod := &chp.Process{
		Name: "P",
		Vars: []chp.VarDecl{{Name: "v", Init: 0, Lo: 0, Hi: 1}},
		Body: chp.Loop{Body: chp.Seq{
			chp.Send{Ch: "c", E: process.V("v")},
			chp.Assign{Var: "v", E: process.Mod(process.Add(process.V("v"), process.Int(1)), process.Int(2))},
		}},
	}
	cons := &chp.Process{
		Name: "C",
		Vars: []chp.VarDecl{{Name: "x", Init: 0, Lo: 0, Hi: 1}},
		Body: chp.Loop{Body: chp.Seq{
			chp.Recv{Ch: "c", Var: "x"},
			chp.Send{Ch: "out", E: process.V("x")},
		}},
	}
	sys, err := chp.Translate([]*chp.Process{prod, cons}, chp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := sys.GenerateCtx(context.Background(), process.GenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Hide the internal channel and decorate the outputs.
	hidden := l.Hide(func(lab string) bool { return strings.HasPrefix(lab, "c ") })
	pm, err := imc.DecorateRates(hidden, map[string]float64{"out !0": 3, "out !1": 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pm.MaximalProgress().ToCTMCCtx(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := res.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("pi sums to %v", sum)
	}
}

// TestCaseStudyCrossCheck: the xSTream functional queue (credit level)
// and the counting abstraction agree on the push/pop interface modulo
// weak traces once values and credits are hidden.
func TestCaseStudyCrossCheck(t *testing.T) {
	functional, err := xstream.FunctionalModel(xstream.Config{
		Capacity: 2, Values: 1, Variant: xstream.Correct,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hide credits and the value payloads: interface = push/pop gates.
	iface := functional.Relabel(func(lab string) string {
		switch {
		case strings.HasPrefix(lab, "push"):
			return "push"
		case strings.HasPrefix(lab, "pop"):
			return "pop"
		default:
			return "i"
		}
	})
	counting := xstream.CountingModel(2)
	if !equivalent(iface, counting, bisim.Trace) {
		res := compareLTS(iface, counting, bisim.Trace)
		t.Fatalf("credit-level and counting queue disagree; trace: %v", res.Counterexample)
	}
}

// TestRouterCompositionalVerification: verify the FAUST router through
// the compositional pipeline and confirm it matches the monolithic LTS.
func TestRouterCompositionalVerification(t *testing.T) {
	mono, err := faust.RouterLTS(context.Background(), faust.RouterConfig{Ports: 2}, chp.Options{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	monoMin, _ := minimize(mono, bisim.Branching)
	if !mcl.MustCheck(monoMin, mcl.DeadlockFree()) {
		t.Fatal("router deadlocked after minimization")
	}
	// Verifying the quotient is equivalent to verifying the original.
	if mcl.MustCheck(mono, mcl.DeadlockFree()) != mcl.MustCheck(monoMin, mcl.DeadlockFree()) {
		t.Fatal("minimization changed the verdict")
	}
}

// TestDecorationStylesAgree: direct rate decoration and compositional
// phase-type decoration (1-phase) give the same chain.
func TestDecorationStylesAgree(t *testing.T) {
	m, err := NewEngine().FromLOTOS(ctxBg(), "process W := work_s ; work_e ; done ; W endproc behaviour W")
	if err != nil {
		t.Fatal(err)
	}
	// Compositional with Exp(5).
	p1, err := m.Decorate(Delay{Start: "work_s", End: "work_e", Dist: phasetype.Exp(5)})
	if err != nil {
		t.Fatal(err)
	}
	ms1, err := p1.SteadyState(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Direct: collapse work_s to tau and delay work_e at rate 5.
	h := m.Hide("work_s")
	p2, err := h.DecorateRates(map[string]float64{"work_e": 5})
	if err != nil {
		t.Fatal(err)
	}
	ms2, err := p2.SteadyState(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms1.Throughputs["done"]-ms2.Throughputs["done"]) > 1e-9 {
		t.Fatalf("decoration styles disagree: %v vs %v",
			ms1.Throughputs["done"], ms2.Throughputs["done"])
	}
}

// TestSmartReduceOnCaseStudy: compositional reduction on the xSTream
// pipeline preserves the external behaviour seen by the model checker.
func TestSmartReduceOnCaseStudy(t *testing.T) {
	net, err := xstream.PipelineNetwork(4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	smart, _, err := smartReduce(net, bisim.Branching)
	if err != nil {
		t.Fatal(err)
	}
	if !mcl.MustCheck(smart, mcl.DeadlockFree()) {
		t.Fatal("pipeline deadlocked after smart reduction")
	}
	// FIFO liveness on the reduced system.
	if !mcl.MustCheck(smart, mcl.ReachableAction(mcl.MustActionRegex(`s4 !.*`))) {
		t.Fatal("output unreachable after reduction")
	}
}
