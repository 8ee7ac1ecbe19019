package process

import (
	"strings"
	"testing"

	"multival/internal/lts"
)

// gen and genSys generate a fixture and check it against the reference
// generator, so every fixture below is also a differential test.
func gen(t *testing.T, b Behavior) *lts.LTS {
	t.Helper()
	return genSys(t, NewSystem("test").SetRoot(b))
}

func genSys(t *testing.T, sys *System) *lts.LTS {
	t.Helper()
	l, diff, err := checkAgainstReference(sys, GenOptions{MaxStates: 100000})
	if diff != "" {
		t.Fatalf("differs from the reference generator: %s", diff)
	}
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return l
}

// genErr generates a fixture that must fail, checks that the reference
// generator fails identically, and returns the error.
func genErr(t *testing.T, sys *System, opts GenOptions) error {
	t.Helper()
	_, diff, err := checkAgainstReference(sys, opts)
	if diff != "" {
		t.Fatalf("differs from the reference generator: %s", diff)
	}
	if err == nil {
		t.Fatal("generation succeeded, want an error")
	}
	return err
}

func behaviorSys(b Behavior) *System { return NewSystem("bad").SetRoot(b) }

func hasLabel(l *lts.LTS, label string) bool {
	return l.LookupLabel(label) >= 0
}

func TestStopAndPrefix(t *testing.T) {
	l := gen(t, Do("a", Do("b", Stop{})))
	if l.NumStates() != 3 || l.NumTransitions() != 2 {
		t.Fatalf("a;b;stop: %d states %d transitions", l.NumStates(), l.NumTransitions())
	}
	if !hasLabel(l, "a") || !hasLabel(l, "b") {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestChoice(t *testing.T) {
	l := gen(t, Alt(Do("a", Stop{}), Do("b", Stop{}), Do("c", Stop{})))
	if l.OutDegree(l.Initial()) != 3 {
		t.Fatalf("choice out-degree = %d, want 3", l.OutDegree(l.Initial()))
	}
}

func TestOffersEmit(t *testing.T) {
	l := gen(t, Act("G", []Offer{Send(Add(Int(2), Int(3))), Send(Bool(true))}, Stop{}))
	if !hasLabel(l, "G !5 !true") {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestOffersRecvEnumerates(t *testing.T) {
	l := gen(t, Act("G", []Offer{Recv("x", 0, 2)}, Stop{}))
	if l.NumTransitions() != 3 {
		t.Fatalf("?x:0..2 should give 3 transitions, got %d", l.NumTransitions())
	}
	for _, lab := range []string{"G !0", "G !1", "G !2"} {
		if !hasLabel(l, lab) {
			t.Fatalf("missing %q in %v", lab, l.Labels())
		}
	}
}

func TestOffersRecvBindsContinuation(t *testing.T) {
	// G ?x:1..2 ; H !(x+10)
	l := gen(t, Act("G", []Offer{Recv("x", 1, 2)},
		Act("H", []Offer{Send(Add(V("x"), Int(10)))}, Stop{})))
	if !hasLabel(l, "H !11") || !hasLabel(l, "H !12") {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestOffersDependent(t *testing.T) {
	// G ?x:0..1 !(x+1): later emission sees earlier acceptance.
	l := gen(t, Act("G", []Offer{Recv("x", 0, 1), Send(Add(V("x"), Int(1)))}, Stop{}))
	if !hasLabel(l, "G !0 !1") || !hasLabel(l, "G !1 !2") {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestRecvBool(t *testing.T) {
	l := gen(t, Act("G", []Offer{RecvBool("b")}, Stop{}))
	if !hasLabel(l, "G !false") || !hasLabel(l, "G !true") {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestGuard(t *testing.T) {
	// [x > 1] -> a with x substituted via let.
	l := gen(t, Let{"x", Int(3), Guard{Gt(V("x"), Int(1)), Do("a", Stop{})}})
	if l.NumTransitions() != 1 {
		t.Fatalf("true guard: %d transitions", l.NumTransitions())
	}
	l2 := gen(t, Let{"x", Int(0), Guard{Gt(V("x"), Int(1)), Do("a", Stop{})}})
	if l2.NumTransitions() != 0 {
		t.Fatalf("false guard: %d transitions", l2.NumTransitions())
	}
}

func TestInterleaving(t *testing.T) {
	// a;stop ||| b;stop: diamond with 4 states, 4 transitions.
	l := gen(t, Interleave(Do("a", Stop{}), Do("b", Stop{})))
	lt, _ := l.Trim()
	if lt.NumStates() != 4 || lt.NumTransitions() != 4 {
		t.Fatalf("interleaving: %d states %d transitions, want 4/4", lt.NumStates(), lt.NumTransitions())
	}
}

func TestSynchronization(t *testing.T) {
	// a;G;stop |[G]| G;b;stop — G happens only after a, then b.
	sysA := Do("a", Do("G", Stop{}))
	sysB := Do("G", Do("b", Stop{}))
	l := gen(t, SyncPar([]string{"G"}, sysA, sysB))
	// Expected: a, then G (sync), then b: 4 reachable states, linear.
	lt, _ := l.Trim()
	if lt.NumStates() != 4 || lt.NumTransitions() != 3 {
		t.Fatalf("sync: %d states %d transitions\n%s", lt.NumStates(), lt.NumTransitions(), lt.Dump())
	}
}

func TestSyncValueNegotiation(t *testing.T) {
	// G !2 |[G]| G ?x:0..5 ; H !x — only x=2 possible.
	a := Act("G", []Offer{SendInt(2)}, Stop{})
	b := Act("G", []Offer{Recv("x", 0, 5)}, Act("H", []Offer{Send(V("x"))}, Stop{}))
	l := gen(t, SyncPar([]string{"G"}, a, b))
	lt, _ := l.Trim()
	if lt.NumTransitions() != 2 {
		t.Fatalf("negotiation: %d transitions, want 2\n%s", lt.NumTransitions(), lt.Dump())
	}
	if !hasLabel(lt, "G !2") || !hasLabel(lt, "H !2") {
		t.Fatalf("labels = %v", lt.Labels())
	}
}

func TestSyncMismatchedValuesDeadlock(t *testing.T) {
	// G !1 |[G]| G !2 cannot synchronize.
	l := gen(t, SyncPar([]string{"G"},
		Act("G", []Offer{SendInt(1)}, Stop{}),
		Act("G", []Offer{SendInt(2)}, Stop{})))
	lt, _ := l.Trim()
	if lt.NumTransitions() != 0 {
		t.Fatalf("mismatched sync should deadlock:\n%s", lt.Dump())
	}
}

func TestHideMakesTau(t *testing.T) {
	l := gen(t, HideIn([]string{"G"}, Do("G", Do("a", Stop{}))))
	if !hasLabel(l, lts.Tau) || !hasLabel(l, "a") {
		t.Fatalf("labels = %v", l.Labels())
	}
	if hasLabel(l, "G") {
		t.Fatal("G not hidden")
	}
}

func TestHideDropsOfferValues(t *testing.T) {
	l := gen(t, HideIn([]string{"G"}, Act("G", []Offer{SendInt(7)}, Stop{})))
	if l.NumTransitions() != 1 || !hasLabel(l, lts.Tau) {
		t.Fatalf("hidden offer: %v", l.Labels())
	}
}

func TestRename(t *testing.T) {
	l := gen(t, Rename{Map: map[string]string{"a": "z"}, B: Do("a", Do("b", Stop{}))})
	if !hasLabel(l, "z") || !hasLabel(l, "b") || hasLabel(l, "a") {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestSeqAndExit(t *testing.T) {
	// (a; exit) >> b; stop — a, tau, b.
	l := gen(t, Seq{Do("a", Exit{}), nil, Do("b", Stop{})})
	lt, _ := l.Trim()
	if lt.NumStates() != 4 || lt.NumTransitions() != 3 {
		t.Fatalf("seq: %d/%d\n%s", lt.NumStates(), lt.NumTransitions(), lt.Dump())
	}
	if !hasLabel(lt, lts.Tau) {
		t.Fatal("exit should become tau under >>")
	}
}

func TestSeqValuePassing(t *testing.T) {
	// (G ?x:3..4 ; exit(x)) >> accept y in H !y
	a := Act("G", []Offer{Recv("x", 3, 4)}, Exit{[]Expr{V("x")}})
	l := gen(t, Seq{a, []string{"y"}, Act("H", []Offer{Send(V("y"))}, Stop{})})
	if !hasLabel(l, "H !3") || !hasLabel(l, "H !4") {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestExitSynchronizes(t *testing.T) {
	// (a; exit ||| b; exit) >> c; stop — c only after both a and b.
	par := Interleave(Do("a", Exit{}), Do("b", Exit{}))
	l := gen(t, Seq{par, nil, Do("c", Stop{})})
	// c must be preceded by both a and b in every trace.
	d := l.Determinize()
	// After just "a", c must not be enabled.
	var afterA lts.State = -1
	d.EachOutgoing(d.Initial(), func(tr lts.Transition) {
		if d.LabelName(tr.Label) == "a" {
			afterA = tr.Dst
		}
	})
	if afterA < 0 {
		t.Fatal("no a from initial")
	}
	d.EachOutgoing(afterA, func(tr lts.Transition) {
		if d.LabelName(tr.Label) == "c" {
			t.Error("c enabled before b")
		}
	})
}

func TestSeqMismatchedExitArity(t *testing.T) {
	b := Seq{Exit{[]Expr{Int(1)}}, nil, Stop{}}
	if err := genErr(t, behaviorSys(b), GenOptions{}); !strings.Contains(err.Error(), "accept") {
		t.Fatalf("arity mismatch: %v", err)
	}
}

func TestCallAndRecursion(t *testing.T) {
	// Counter(n) := [n > 0] -> dec; Counter(n-1) [] [n == 0] -> done; stop
	sys := NewSystem("counter")
	sys.Define("Counter", []string{"n"}, Alt(
		Guard{Gt(V("n"), Int(0)), Do("dec", Call{"Counter", []Expr{Sub(V("n"), Int(1))}})},
		Guard{Eq(V("n"), Int(0)), Do("done", Stop{})},
	))
	sys.SetRoot(Call{"Counter", []Expr{Int(3)}})
	l := genSys(t, sys)
	lt, _ := l.Trim()
	if lt.NumStates() != 5 || lt.NumTransitions() != 4 {
		t.Fatalf("counter: %d/%d\n%s", lt.NumStates(), lt.NumTransitions(), lt.Dump())
	}
}

func TestInfiniteCycleIsFinite(t *testing.T) {
	// P := a; P — one state, one self-loop after trim/canonical keys.
	sys := NewSystem("loop")
	sys.Define("P", nil, Do("a", Call{Proc: "P"}))
	sys.SetRoot(Call{Proc: "P"})
	l := genSys(t, sys)
	if l.NumStates() != 2 || l.NumTransitions() != 2 {
		// Initial term Call{P} and continuation term differ textually,
		// but behaviourally it is a single a-loop.
		q := strongMinimize(l)
		if q.NumStates() != 1 || q.NumTransitions() != 1 {
			t.Fatalf("a-loop minimizes to %d/%d", q.NumStates(), q.NumTransitions())
		}
	}
}

func TestUnguardedRecursionDetected(t *testing.T) {
	sys := NewSystem("bad")
	sys.Define("P", nil, Choice{Call{Proc: "P"}, Do("a", Stop{})})
	sys.SetRoot(Call{Proc: "P"})
	err := genErr(t, sys, GenOptions{})
	if !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("unguarded recursion not detected: %v", err)
	}
}

func TestUnguardedRecursionThroughPar(t *testing.T) {
	// P := P ||| a; stop unfolds P under a parallel operator whose moves
	// are still being derived when P is reached again.
	sys := NewSystem("bad")
	sys.Define("P", nil, Interleave(Call{Proc: "P"}, Do("a", Stop{})))
	sys.SetRoot(Call{Proc: "P"})
	if err := genErr(t, sys, GenOptions{}); !strings.Contains(err.Error(), "recursion") {
		t.Fatalf("unguarded recursion not detected: %v", err)
	}
}

func TestUndefinedProcess(t *testing.T) {
	sys := NewSystem("bad")
	sys.SetRoot(Call{Proc: "Nope"})
	if err := genErr(t, sys, GenOptions{}); !strings.Contains(err.Error(), "undefined process") {
		t.Fatalf("undefined process: %v", err)
	}
}

func TestWrongArity(t *testing.T) {
	sys := NewSystem("bad")
	sys.Define("P", []string{"x"}, Stop{})
	sys.SetRoot(Call{Proc: "P"})
	if err := genErr(t, sys, GenOptions{}); !strings.Contains(err.Error(), "expects 1 arguments") {
		t.Fatalf("wrong arity: %v", err)
	}
}

func TestExplosionGuard(t *testing.T) {
	// Counter to 1000 with a 10-state budget.
	sys := NewSystem("big")
	sys.Define("C", []string{"n"},
		Guard{Gt(V("n"), Int(0)), Do("t", Call{"C", []Expr{Sub(V("n"), Int(1))}})})
	sys.SetRoot(Call{"C", []Expr{Int(1000)}})
	err := genErr(t, sys, GenOptions{MaxStates: 10})
	var ee *ExplosionError
	if !errorsAs(err, &ee) {
		t.Fatalf("unexpected error type: %v", err)
	}
}

// errorsAs is a tiny local wrapper to avoid importing errors just for one
// assertion.
func errorsAs(err error, target **ExplosionError) bool {
	for err != nil {
		if e, ok := err.(*ExplosionError); ok {
			*target = e
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestParCommutativeModuloBisim(t *testing.T) {
	a := Do("a", Act("G", []Offer{SendInt(1)}, Stop{}))
	b := Do("b", Act("G", []Offer{Recv("x", 0, 2)}, Stop{}))
	l1 := gen(t, SyncPar([]string{"G"}, a, b))
	l2 := gen(t, SyncPar([]string{"G"}, b, a))
	if !strongEquivalent(l1, l2) {
		t.Fatal("parallel composition should be commutative modulo strong bisim")
	}
}

func TestParAssociativeModuloBisim(t *testing.T) {
	a := Do("G", Stop{})
	b := Do("G", Stop{})
	c := Do("G", Stop{})
	l1 := gen(t, SyncPar([]string{"G"}, SyncPar([]string{"G"}, a, b), c))
	l2 := gen(t, SyncPar([]string{"G"}, a, SyncPar([]string{"G"}, b, c)))
	if !strongEquivalent(l1, l2) {
		t.Fatal("three-way sync should be associative modulo strong bisim")
	}
}

func TestChoiceCommutativeModuloBisim(t *testing.T) {
	p := Alt(Do("a", Stop{}), Do("b", Stop{}))
	q := Alt(Do("b", Stop{}), Do("a", Stop{}))
	if !strongEquivalent(gen(t, p), gen(t, q)) {
		t.Fatal("choice should be commutative modulo strong bisim")
	}
}

func TestTauNeverSynchronizes(t *testing.T) {
	// hide G in G;a  |[i]|? — tau is not a gate; sync set {i} must not
	// capture internal steps. (Using "i" as a gate name is the modeler's
	// own risk; the semantics treats tau specially.)
	inner := HideIn([]string{"G"}, Do("G", Do("a", Stop{})))
	l := gen(t, SyncPar([]string{"i"}, inner, Do("b", Stop{})))
	// The hidden G (now tau) must proceed without b's cooperation.
	if !hasLabel(l, lts.Tau) {
		t.Fatalf("tau lost: %v", l.Labels())
	}
	lt, _ := l.Trim()
	if lt.NumTransitions() == 0 {
		t.Fatal("tau was blocked by sync set")
	}
}

func TestEmptyDomainError(t *testing.T) {
	b := Act("G", []Offer{Recv("x", 5, 2)}, Stop{})
	genErr(t, behaviorSys(b), GenOptions{})
}

func TestHugeDomainError(t *testing.T) {
	b := Act("G", []Offer{Recv("x", 0, 100000)}, Stop{})
	genErr(t, behaviorSys(b), GenOptions{})
}

func TestNoRootError(t *testing.T) {
	genErr(t, NewSystem("empty"), GenOptions{})
}

func TestShadowingInOffers(t *testing.T) {
	// G ?x:0..1 ?x:5..5 ; H !x — the second ?x shadows the first.
	l := gen(t, Act("G", []Offer{Recv("x", 0, 1), Recv("x", 5, 5)},
		Act("H", []Offer{Send(V("x"))}, Stop{})))
	if !hasLabel(l, "H !5") {
		t.Fatalf("labels = %v", l.Labels())
	}
	if hasLabel(l, "H !0") || hasLabel(l, "H !1") {
		t.Fatal("outer binding leaked through shadowing offer")
	}
}

func TestLetShadowing(t *testing.T) {
	// let x = 1 in (let x = 2 in H !x)
	l := gen(t, Let{"x", Int(1), Let{"x", Int(2),
		Act("H", []Offer{Send(V("x"))}, Stop{})}})
	if !hasLabel(l, "H !2") || hasLabel(l, "H !1") {
		t.Fatalf("labels = %v", l.Labels())
	}
}

func TestDisableInterrupts(t *testing.T) {
	// a; b; stop [> k; stop — k can preempt before a, between a and b,
	// and after b (the body never exits, so disabling persists).
	l := gen(t, Disable{A: Do("a", Do("b", Stop{})), B: Do("k", Stop{})})
	d := l.Determinize()
	// Trace "k" alone is possible.
	if len(d.Successors(d.Initial(), d.LookupLabel("k"))) != 1 {
		t.Fatal("immediate interrupt impossible")
	}
	// Trace a.k possible.
	sa := d.Successors(d.Initial(), d.LookupLabel("a"))
	if len(sa) != 1 || len(d.Successors(sa[0], d.LookupLabel("k"))) != 1 {
		t.Fatal("interrupt after a impossible")
	}
	// After the interrupt fired, a/b are gone.
	sk := d.Successors(d.Initial(), d.LookupLabel("k"))
	if id := d.LookupLabel("a"); id >= 0 && len(d.Successors(sk[0], id)) > 0 {
		t.Fatal("body survived the interrupt")
	}
}

func TestDisableDissolvesOnExit(t *testing.T) {
	// (a; exit [> k; stop) >> c; stop — LOTOS semantics: k may preempt
	// up to (and including) the instant before the delta of exit fires;
	// once it has fired (the tau of >>), the disable is dissolved, so
	// a.c is possible, a.k ends everything, and a.k.c / a.c.k are not.
	b := Seq{Disable{A: Do("a", Exit{}), B: Do("k", Stop{})}, nil, Do("c", Stop{})}
	l := gen(t, b)
	d := l.Determinize()
	sa := d.Successors(d.Initial(), d.LookupLabel("a"))
	if len(sa) != 1 {
		t.Fatal("a rejected")
	}
	// a.c possible (exit fired as tau, then c).
	sc := d.Successors(sa[0], d.LookupLabel("c"))
	if len(sc) != 1 {
		t.Fatal("continuation after exit missing")
	}
	// After a.c nothing remains — in particular no k.
	if id := d.LookupLabel("k"); id >= 0 && len(d.Successors(sc[0], id)) > 0 {
		t.Fatal("disable survived past the dissolved exit")
	}
	// a.k possible (preemption before the delta fired), and after it no c.
	sk := d.Successors(sa[0], d.LookupLabel("k"))
	if len(sk) != 1 {
		t.Fatal("preemption before exit should be possible")
	}
	if id := d.LookupLabel("c"); id >= 0 && len(d.Successors(sk[0], id)) > 0 {
		t.Fatal("continuation ran despite preemption")
	}
}

func TestDisableValuePassing(t *testing.T) {
	// Interrupter can carry data: g ?x [> k !7.
	l := gen(t, Disable{
		A: Act("g", []Offer{Recv("x", 0, 1)}, Stop{}),
		B: Act("k", []Offer{SendInt(7)}, Stop{}),
	})
	if l.LookupLabel("k !7") < 0 {
		t.Fatalf("labels = %v", l.Labels())
	}
}
