package mcl

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"multival/internal/lts"
)

// diamond builds:
//
//	0 -a-> 1 -b-> 3
//	0 -c-> 2 -d-> 3
//	3 (deadlock)
func diamondLTS() *lts.LTS {
	l := lts.New("diamond")
	l.AddStates(4)
	l.AddTransition(0, "a", 1)
	l.AddTransition(0, "c", 2)
	l.AddTransition(1, "b", 3)
	l.AddTransition(2, "d", 3)
	l.SetInitial(0)
	return l
}

// ring builds a 3-cycle 0 -a-> 1 -b-> 2 -c-> 0 (deadlock-free).
func ringLTS() *lts.LTS {
	l := lts.New("ring")
	l.AddStates(3)
	l.AddTransition(0, "a", 1)
	l.AddTransition(1, "b", 2)
	l.AddTransition(2, "c", 0)
	l.SetInitial(0)
	return l
}

func TestBasicModalities(t *testing.T) {
	l := diamondLTS()
	cases := []struct {
		f    Formula
		want bool
	}{
		{True(), true},
		{False(), false},
		{Dia(Action("a"), True()), true},
		{Dia(Action("b"), True()), false},                  // b not enabled at 0
		{Box(Action("z"), False()), true},                  // vacuous
		{Box(AnyAction(), Dia(AnyAction(), True())), true}, // all succs of 0 can move
		{Dia(Action("a"), Dia(Action("b"), True())), true},
		{Dia(Action("a"), Dia(Action("d"), True())), false},
		{Not(Dia(Action("b"), True())), true},
		{And(Dia(Action("a"), True()), Dia(Action("c"), True())), true},
		{Or(Dia(Action("z"), True()), Dia(Action("a"), True())), true},
		{Implies(Dia(Action("a"), True()), Dia(Action("c"), True())), true},
	}
	for i, c := range cases {
		got, err := Check(l, c.f)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, c.f, err)
		}
		if got != c.want {
			t.Errorf("case %d: Check(%s) = %v, want %v", i, c.f, got, c.want)
		}
	}
}

func TestFixpoints(t *testing.T) {
	l := diamondLTS()
	// EF <b>true: a b-step is reachable.
	if !MustCheck(l, ReachableAction(Action("b"))) {
		t.Error("b should be reachable")
	}
	if MustCheck(l, ReachableAction(Action("nope"))) {
		t.Error("nope should not be reachable")
	}
	// Deadlock reachable (state 3).
	if !MustCheck(l, Reachable(Not(Dia(AnyAction(), True())))) {
		t.Error("deadlock should be reachable in diamond")
	}
	if MustCheck(l, DeadlockFree()) {
		t.Error("diamond has a deadlock")
	}
	if !MustCheck(ringLTS(), DeadlockFree()) {
		t.Error("ring is deadlock-free")
	}
	// AF deadlock: inevitable in diamond (all paths end in state 3).
	if !MustCheck(l, Inevitable(Not(Dia(AnyAction(), True())))) {
		t.Error("diamond inevitably deadlocks")
	}
	if MustCheck(ringLTS(), Inevitable(Not(Dia(AnyAction(), True())))) {
		t.Error("ring never deadlocks")
	}
}

func TestInvariantAndNeverEnabled(t *testing.T) {
	l := ringLTS()
	if !MustCheck(l, Invariant(Dia(AnyAction(), True()))) {
		t.Error("ring invariantly can move")
	}
	if !MustCheck(l, NeverEnabled(Action("zzz"))) {
		t.Error("zzz is never enabled")
	}
	if MustCheck(l, NeverEnabled(Action("b"))) {
		t.Error("b is enabled at state 1")
	}
}

func TestResponse(t *testing.T) {
	// In the ring every a is followed by b eventually.
	if !MustCheck(ringLTS(), Response(Action("a"), Action("b"))) {
		t.Error("ring: a should be followed by b")
	}
	// In the diamond, after a the only continuation is b: response holds.
	if !MustCheck(diamondLTS(), Response(Action("a"), Action("b"))) {
		t.Error("diamond: a is always followed by b")
	}
	// After a, d never happens.
	if MustCheck(diamondLTS(), Response(Action("a"), Action("d"))) {
		t.Error("diamond: a is never followed by d")
	}
}

func TestWeakModalitiesAndLivelock(t *testing.T) {
	// 0 -tau-> 1 -a-> 2, plus tau cycle 3<->4 reachable by b from 0.
	l := lts.New("weak")
	l.AddStates(5)
	l.AddTransition(0, lts.Tau, 1)
	l.AddTransition(1, "a", 2)
	l.AddTransition(0, "b", 3)
	l.AddTransition(3, lts.Tau, 4)
	l.AddTransition(4, lts.Tau, 3)
	l.SetInitial(0)

	if !MustCheck(l, WeakDia(Action("a"), True())) {
		t.Error("weak diamond should see a through tau")
	}
	if MustCheck(l, Dia(Action("a"), True())) {
		t.Error("strong diamond must not see a through tau")
	}
	if !MustCheck(l, Livelock()) {
		t.Error("tau cycle is a livelock")
	}
	if MustCheck(ringLTS(), Livelock()) {
		t.Error("ring has no tau at all")
	}
}

func TestActionFormulas(t *testing.T) {
	cases := []struct {
		af    ActionFormula
		label string
		want  bool
	}{
		{AnyAction(), "x", true},
		{AnyAction(), lts.Tau, true},
		{TauAction(), lts.Tau, true},
		{TauAction(), "x", false},
		{VisibleAction(), "x", true},
		{VisibleAction(), lts.Tau, false},
		{Action("push"), "push", true},
		{Action("push"), "pop", false},
		{MustActionRegex("push.*"), "push !5", true},
		{MustActionRegex("push.*"), "pop", false},
		{NotAction(Action("a")), "b", true},
		{AndAction(MustActionRegex("p.*"), NotAction(Action("pop"))), "push", true},
		{AndAction(MustActionRegex("p.*"), NotAction(Action("pop"))), "pop", false},
		{OrAction(Action("a"), Action("b")), "b", true},
	}
	for i, c := range cases {
		if got := c.af.Matches(c.label); got != c.want {
			t.Errorf("case %d: %s.Matches(%q) = %v, want %v", i, c.af, c.label, got, c.want)
		}
	}
	if _, err := ActionRegex("("); err == nil {
		t.Error("bad regex accepted")
	}
}

func TestWellFormedness(t *testing.T) {
	// Free variable.
	if _, err := Sat(ringLTS(), Var("X")); err == nil {
		t.Error("free variable accepted")
	}
	// Negative occurrence.
	bad := Mu("X", Not(Var("X")))
	if _, err := Sat(ringLTS(), bad); err == nil {
		t.Error("negative fixpoint variable accepted")
	}
	// Double negation is fine.
	good := Mu("X", Not(Not(Var("X"))))
	if _, err := Sat(ringLTS(), good); err != nil {
		t.Errorf("positive (doubly negated) variable rejected: %v", err)
	}
	// Variable under box inside negation: still negative.
	bad2 := Nu("X", Not(Box(AnyAction(), Var("X"))))
	if _, err := Sat(ringLTS(), bad2); err == nil {
		t.Error("negative variable under box accepted")
	}
}

func TestNestedFixpointsShadowing(t *testing.T) {
	// nu X. (<a>true or mu X. <any>X) — inner X shadows outer.
	f := Nu("X", Or(Dia(Action("a"), True()), Mu("X", Dia(AnyAction(), Var("X")))))
	if _, err := Sat(ringLTS(), f); err != nil {
		t.Fatalf("shadowed fixpoint rejected: %v", err)
	}
}

func TestSatCount(t *testing.T) {
	l := diamondLTS()
	set, err := Sat(l, Dia(AnyAction(), True()))
	if err != nil {
		t.Fatal(err)
	}
	if set.Count() != 3 { // states 0,1,2 can move; 3 is deadlocked
		t.Errorf("Sat count = %d, want 3", set.Count())
	}
}

func TestVerifyWitness(t *testing.T) {
	l := diamondLTS()
	res, err := Verify(l, ReachableAction(Action("b")))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatal("property should hold")
	}
	if len(res.Witness) != 2 || res.Witness[0] != "a" || res.Witness[1] != "b" {
		t.Errorf("witness = %v, want [a b]", res.Witness)
	}
}

func TestVerifyWitnessDeadlock(t *testing.T) {
	l := diamondLTS()
	res, err := Verify(l, Reachable(Not(Dia(AnyAction(), True()))))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatal("deadlock reachable")
	}
	if len(res.Witness) != 2 {
		t.Errorf("witness = %v, want length 2 (shortest path to state 3)", res.Witness)
	}
}

func TestParseBasics(t *testing.T) {
	l := diamondLTS()
	cases := []struct {
		src  string
		want bool
	}{
		{"true", true},
		{"false", false},
		{"<a> true", true},
		{"[a] <b> true", true},
		{"<a> true and <c> true", true},
		{"<a> true or <zz> true", true},
		{"not <b> true", true},
		{"<a> true -> <c> true", true},
		{`<"a"> true`, true},
		{"mu X . (<b> true or <true> X)", true},
		{"nu X . (<true> true and [true] X)", false}, // deadlock falsifies
		{"< /a|c/ > true", true},
		{"<~tau> true", true},
		{"[a | c] <b | d> true", true},
		{"<a & ~b> true", true},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		got, err := Check(l, f)
		if err != nil {
			t.Errorf("Check(%q): %v", c.src, err)
			continue
		}
		if got != c.want {
			t.Errorf("Check(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "(", "<a true", "[a> true", "mu . true", "mu X true",
		"true true", "<> true", "not", "mu X . </(/ > X", "«",
		`<"unterminated> true`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseRoundtrip(t *testing.T) {
	// String() output of parsed formulas re-parses to a formula with the
	// same truth value on a test LTS.
	l := diamondLTS()
	srcs := []string{
		"mu X . (<b> true or <true> X)",
		"nu I . (<true> true and [true] I)",
		"[a | c] (<b> true or <d> true)",
		"not (<a> true and not <c> true)",
		"<a> true -> (<c> true or false)",
	}
	for _, src := range srcs {
		f1 := MustParse(src)
		f2, err := Parse(f1.String())
		if err != nil {
			t.Errorf("reparse of %q (%q) failed: %v", src, f1.String(), err)
			continue
		}
		v1, v2 := MustCheck(l, f1), MustCheck(l, f2)
		if v1 != v2 {
			t.Errorf("roundtrip changed truth of %q: %v vs %v", src, v1, v2)
		}
	}
}

func TestEmptyLTS(t *testing.T) {
	l := lts.New("empty")
	if _, err := Check(l, True()); err == nil {
		t.Error("Check on empty LTS should error")
	}
}

func TestFormulaString(t *testing.T) {
	f := Mu("X", Or(Dia(Action("a"), True()), Box(TauAction(), Var("X"))))
	s := f.String()
	for _, want := range []string{"mu X", "<a>", "[tau]", "or"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestNegatedClosedFixpoint(t *testing.T) {
	// not (nu X. ...) is well-formed: polarity is relative to the binder.
	f := Not(DeadlockFree())
	got, err := Check(diamondLTS(), f)
	if err != nil {
		t.Fatalf("negated closed fixpoint rejected: %v", err)
	}
	if !got {
		t.Error("diamond has a deadlock, so not(DeadlockFree) must hold")
	}
	// Mixed: a negated fixpoint conjoined with a positive one.
	g := And(Not(DeadlockFree()), Reachable(Dia(Action("a"), True())))
	if _, err := Sat(diamondLTS(), g); err != nil {
		t.Fatalf("conjunction with negated fixpoint rejected: %v", err)
	}
}

// TestParseNestingBound pins MaxNesting: a formula of exactly that
// height parses and its printed form parses back, one level more is a
// parse error, and so is hostile nesting far past the bound, which used
// to overflow a 64 MB goroutine stack.
func TestParseNestingBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  func(n int) string // a formula of height n
	}{
		{"not", func(n int) string { return strings.Repeat("not ", n-1) + "true" }},
		{"diamond", func(n int) string { return strings.Repeat("<a> ", n-1) + "true" }},
		{"and", func(n int) string { return strings.Repeat("true and ", n-1) + "true" }},
		{"implies", func(n int) string { return strings.Repeat("a -> ", n-2) + "true" }},
		{"action", func(n int) string { return "<" + strings.Repeat("~", n-2) + "a> true" }},
	} {
		f, err := Parse(tc.src(MaxNesting))
		if err != nil {
			t.Errorf("%s: height %d rejected: %v", tc.name, MaxNesting, err)
		} else if _, err := Parse(f.String()); err != nil {
			t.Errorf("%s: printed form of height %d rejected: %v", tc.name, MaxNesting, err)
		}
		if _, err := Parse(tc.src(MaxNesting + 2)); err == nil || !strings.Contains(err.Error(), "nested deeper") {
			t.Errorf("%s: height %d: err = %v, want a nesting error", tc.name, MaxNesting+2, err)
		}
	}
	if _, err := Parse(strings.Repeat("not ", MaxNesting) + "true"); err == nil {
		t.Error("one level over the bound parsed")
	}
	if _, err := Parse(strings.Repeat("(", 2*MaxNesting+1) + "true" + strings.Repeat(")", 2*MaxNesting+1)); err == nil {
		t.Error("redundant parentheses past the parser's limit parsed")
	}

	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	if _, err := ParseQuery(strings.Repeat("not ", 400_000) + "true"); err == nil {
		t.Error("400,000 nested negations parsed")
	}
}

// TestPrintLinear: printing a formula MaxNesting levels high allocates
// at most a small constant times the printed length; a printer that
// concatenates its operands' text copies everything below each level.
func TestPrintLinear(t *testing.T) {
	for _, src := range []string{
		strings.Repeat("true and ", MaxNesting-1) + "true",
		strings.Repeat("<a> ", MaxNesting-1) + "true",
		strings.Repeat("a -> ", MaxNesting-2) + "true",
		"<" + strings.Repeat("~", MaxNesting-2) + "a> true",
		"[" + strings.Repeat("(a | ", MaxNesting/2-1) + "b" + strings.Repeat(")", MaxNesting/2-1) + "] false",
	} {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("%.20s...: %v", src, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := f.String()
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(8*len(out)+4096) {
			t.Errorf("%.20s...: printing %d bytes allocated %d bytes", src, len(out), alloc)
		}
	}
}
