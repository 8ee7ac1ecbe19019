package faust

import (
	"context"
	"errors"
	"testing"

	"multival/internal/bisim"
	"multival/internal/chp"
	"multival/internal/lts"
	"multival/internal/mcl"
)

func TestRouterDeadlockFree(t *testing.T) {
	l, err := RouterLTS(context.Background(), RouterConfig{Ports: 3}, chp.Options{}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates() == 0 {
		t.Fatal("empty router LTS")
	}
	if !mcl.MustCheck(l, mcl.DeadlockFree()) {
		t.Fatal("router deadlocked")
	}
}

// TestRouterLTSCanceled: generation of the 4-port router (the sweep's chp
// family at its largest) stops on a canceled context instead of exploring
// the full state space.
func TestRouterLTSCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RouterLTS(ctx, RouterConfig{Ports: 4}, chp.Options{}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRouterNeverMisroutes(t *testing.T) {
	cfg := RouterConfig{Ports: 3}
	l, err := RouterLTS(context.Background(), cfg, chp.Options{}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range MisroutedLabels(cfg.Ports) {
		if !mcl.MustCheck(l, mcl.NeverEnabled(mcl.Action(bad))) {
			t.Errorf("misrouted packet possible: %s", bad)
		}
	}
	// Sanity: correctly routed packets do occur.
	for o := 0; o < cfg.Ports; o++ {
		lab := routeLabel(o)
		if !mcl.MustCheck(l, mcl.ReachableAction(mcl.Action(lab))) {
			t.Errorf("no packet ever delivered at %s", lab)
		}
	}
}

func routeLabel(o int) string {
	return "out" + string(rune('0'+o)) + " !" + string(rune('0'+o))
}

func TestRouterDeliveryResponse(t *testing.T) {
	// Every accepted packet for port o is inevitably delivered at o
	// (single active input: no contention starvation to worry about).
	l, err := RouterLTS(context.Background(), RouterConfig{Ports: 3, InputsActive: []int{0}}, chp.Options{}, 200000)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < 3; o++ {
		in := "in0 !" + string(rune('0'+o))
		out := routeLabel(o)
		if !mcl.MustCheck(l, mcl.Response(mcl.Action(in), mcl.Action(out))) {
			t.Errorf("packet %s not inevitably delivered at %s", in, out)
		}
	}
}

func TestRouterContentionStillSafe(t *testing.T) {
	// Two active inputs competing for the same outputs.
	cfg := RouterConfig{Ports: 3, InputsActive: []int{0, 1}}
	l, err := RouterLTS(context.Background(), cfg, chp.Options{}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	if !mcl.MustCheck(l, mcl.DeadlockFree()) {
		t.Fatal("contended router deadlocked")
	}
	for _, bad := range MisroutedLabels(cfg.Ports) {
		if !mcl.MustCheck(l, mcl.NeverEnabled(mcl.Action(bad))) {
			t.Errorf("misrouted under contention: %s", bad)
		}
	}
}

func TestRouterHandshakeExpansion(t *testing.T) {
	// With explicit req/ack handshakes the router still works; the LTS
	// is strictly larger (finer-grained).
	plain, err := RouterLTS(context.Background(), RouterConfig{Ports: 2}, chp.Options{}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := RouterLTS(context.Background(), RouterConfig{Ports: 2}, chp.Options{HandshakeExpand: true}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	if hs.NumStates() <= plain.NumStates() {
		t.Errorf("handshake expansion did not grow the LTS: %d <= %d",
			hs.NumStates(), plain.NumStates())
	}
	if !mcl.MustCheck(hs, mcl.DeadlockFree()) {
		t.Fatal("handshake router deadlocked")
	}
}

func TestRouterConfigValidation(t *testing.T) {
	if _, err := RouterLTS(context.Background(), RouterConfig{Ports: 1}, chp.Options{}, 0); err == nil {
		t.Error("1-port router accepted")
	}
	if _, err := RouterLTS(context.Background(), RouterConfig{Ports: 6}, chp.Options{}, 0); err == nil {
		t.Error("6-port router accepted")
	}
	if _, err := RouterLTS(context.Background(), RouterConfig{Ports: 3, InputsActive: []int{7}}, chp.Options{}, 0); err == nil {
		t.Error("bad active input accepted")
	}
}

func TestForkSpecShape(t *testing.T) {
	spec, err := ForkSpec(2)
	if err != nil {
		t.Fatal(err)
	}
	if !mcl.MustCheck(spec, mcl.DeadlockFree()) {
		t.Fatal("fork spec deadlocked")
	}
	// Both deliveries of round 0 happen before any delivery of round 1.
	if !mcl.MustCheck(spec, mcl.Response(mcl.Action("b !0"), mcl.Action("c !0"))) {
		t.Fatal("spec: b!0 not inevitably followed by c!0 (within the round)")
	}
}

func TestForkWaitBothEquivalentToSpec(t *testing.T) {
	spec, err := ForkSpec(2)
	if err != nil {
		t.Fatal(err)
	}
	impl, err := ForkImpl(2, ForkWaitBoth)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalent(spec, impl, bisim.Branching) {
		t.Fatalf("wait-both fork not branching-equivalent to spec\nspec:\n%s\nimpl:\n%s",
			dumpSmall(spec), dumpSmall(impl))
	}
}

func TestForkIsochronicEquivalentToSpec(t *testing.T) {
	spec, err := ForkSpec(2)
	if err != nil {
		t.Fatal(err)
	}
	impl, err := ForkImpl(2, ForkIsochronic)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalent(spec, impl, bisim.Branching) {
		t.Fatalf("isochronic fork not branching-equivalent to spec\nimpl:\n%s", dumpSmall(impl))
	}
}

func TestForkUnsafeBroken(t *testing.T) {
	spec, err := ForkSpec(2)
	if err != nil {
		t.Fatal(err)
	}
	impl, err := ForkImpl(2, ForkUnsafe)
	if err != nil {
		t.Fatal(err)
	}
	if equivalent(spec, impl, bisim.Branching) {
		t.Fatal("unsafe fork must NOT be equivalent to the spec")
	}
	// The failure is a wedged protocol: a deadlock is reachable.
	if !mcl.MustCheck(impl, mcl.Reachable(mcl.Not(mcl.Dia(mcl.AnyAction(), mcl.True())))) {
		t.Fatal("unsafe fork has no reachable deadlock?")
	}
	// And trace inequivalence provides a diagnostic counterexample.
	res := compareLTS(spec, impl, bisim.Trace)
	if res.Equivalent {
		t.Fatal("unsafe fork should be trace-distinguishable (it wedges)")
	}
	if len(res.Counterexample) == 0 {
		t.Fatal("no distinguishing trace produced")
	}
}

func TestForkVariantString(t *testing.T) {
	for v, want := range map[ForkVariant]string{
		ForkWaitBoth: "wait-both", ForkIsochronic: "isochronic",
		ForkUnsafe: "unsafe", ForkVariant(9): "unknown",
	} {
		if v.String() != want {
			t.Errorf("ForkVariant(%d) = %q", v, v.String())
		}
	}
}

func TestForkValuesValidation(t *testing.T) {
	if _, err := ForkSpec(0); err == nil {
		t.Error("0 values accepted")
	}
	if _, err := ForkImpl(9, ForkWaitBoth); err == nil {
		t.Error("9 values accepted")
	}
}

func dumpSmall(l *lts.LTS) string {
	m, _ := minimize(l, bisim.Branching)
	if m.NumStates() > 40 {
		return m.String()
	}
	return m.Dump()
}

// equivalent is bisim.EquivalentCtx without cancellation.
func equivalent(a, b *lts.LTS, rel bisim.Relation) bool {
	eq, err := bisim.EquivalentCtx(context.Background(), a, b, rel, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return eq
}

// compareLTS is bisim.CompareCtx without cancellation.
func compareLTS(a, b *lts.LTS, rel bisim.Relation) bisim.CompareResult {
	res, err := bisim.CompareCtx(context.Background(), a, b, rel, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return res
}

// minimize is bisim.MinimizeCtx without cancellation.
func minimize(l *lts.LTS, rel bisim.Relation) (*lts.LTS, []int) {
	q, block, err := bisim.MinimizeCtx(context.Background(), l, rel, bisim.Options{})
	if err != nil {
		panic(err)
	}
	return q, block
}
