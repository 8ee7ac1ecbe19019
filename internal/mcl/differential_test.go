package mcl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"multival/internal/chp"
	"multival/internal/faust"
	"multival/internal/lts"
	"multival/internal/xstream"
)

// sameAsReference fails unless the compiled evaluator agrees with the
// reference one on f over l: the same error, Sat set, verdict, SatCount
// and witness.
func sameAsReference(t *testing.T, l *lts.LTS, f Formula) bool {
	t.Helper()
	want, werr := refVerify(l, f)
	got, gerr := Verify(bg, l, f)
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Errorf("%s on %s: error %v, reference %v", f, l.Name(), gerr, werr)
		return false
	}
	if werr != nil {
		return true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s on %s: result %+v, reference %+v", f, l.Name(), got, want)
		return false
	}
	wantSet, _ := refSat(l, f)
	gotSet, err := Sat(bg, l, f)
	if err != nil || !gotSet.equal(wantSet) {
		t.Errorf("%s on %s: Sat %v (err %v), reference %v", f, l.Name(), gotSet, err, wantSet)
		return false
	}
	return true
}

// presetFormulas returns every derived operator of presets.go (and the
// test-only weak modalities) instantiated over labels a, b and c.
func presetFormulas() []Formula {
	a, b, c := Action("a"), Action("b"), Action("c")
	return []Formula{
		DeadlockFree(),
		Livelock(),
		Reachable(Not(Dia(AnyAction(), True()))),
		ReachableAction(b),
		ReachableAction(OrAction(a, c)),
		NeverEnabled(a),
		NeverEnabled(AnyAction()),
		Invariant(Dia(AnyAction(), True())),
		Inevitable(Dia(c, True())),
		Inevitable(Not(Dia(AnyAction(), True()))),
		Response(a, b),
		Response(AnyAction(), c),
		TauReach(Dia(a, True())),
		WeakDia(b, True()),
		Not(Response(b, a)),
	}
}

// alternatingFormulas are shapes the random generator reaches rarely:
// open nested fixpoints of one sign, alternations two to four deep, an
// empty variable name and shadowed variables.
func alternatingFormulas() []Formula {
	a, b := Action("a"), Action("b")
	return []Formula{
		// Same sign, open: one block.
		Mu("X", Or(Dia(a, True()), Mu("Y", Or(Dia(b, Var("X")), Dia(AnyAction(), Var("Y")))))),
		Nu("X", And(Box(a, Var("X")), Nu("Y", And(Dia(AnyAction(), Var("Y")), Box(b, Var("X")))))),
		// Infinitely often b on some path: nu X . mu Y . (<b> X or <true> Y).
		Nu("X", Mu("Y", Or(Dia(b, Var("X")), Dia(AnyAction(), Var("Y"))))),
		// On every path, eventually always a-free: mu X . nu Y . ...
		Mu("X", Nu("Y", And(Box(a, Var("X")), Box(NotAction(a), Var("Y"))))),
		// Three alternations, each reading every enclosing variable.
		Mu("X", Nu("Y", Mu("Z", Or(Dia(a, Var("X")), Or(And(Dia(b, Var("Y")), Box(b, Var("Y"))), Dia(TauAction(), Var("Z"))))))),
		Nu("X", Mu("Y", Nu("Z", And(Or(Box(a, Var("X")), Dia(b, Var("Y"))), Box(AnyAction(), Var("Z")))))),
		// Four alternations.
		Nu("W", Mu("X", Nu("Y", Mu("Z", Or(And(Dia(a, Var("W")), Box(b, Var("Y"))), Or(Dia(b, Var("X")), Dia(AnyAction(), Var("Z")))))))),
		Mu("W", Nu("X", Mu("Y", Nu("Z", And(Or(Box(a, Var("W")), Dia(b, Var("Y"))), And(Box(b, Var("X")), Box(AnyAction(), Var("Z")))))))),
		Nu("W", Mu("X", Nu("Y", Mu("Z", Or(Or(And(Dia(a, Var("W")), Dia(b, Var("Y"))), Dia(TauAction(), Var("X"))), Dia(AnyAction(), Var("Z"))))))),
		// A fixpoint variable with the empty name.
		Mu("", Or(Dia(a, True()), Dia(AnyAction(), Var("")))),
		// An alternation under a negation, and a shadowed variable.
		Not(Nu("X", Mu("Y", Or(Dia(a, Var("X")), Dia(b, Var("Y")))))),
		Mu("X", Or(Dia(a, Var("X")), Nu("X", And(Dia(b, Var("X")), Box(a, Var("X")))))),
		// The inner fixpoint reads only the outer variable of its own sign.
		Mu("X", Or(Dia(a, True()), Nu("Y", And(Box(b, Var("Y")), Mu("Z", Or(Dia(AnyAction(), Var("X")), Dia(a, Var("Z")))))))),
	}
}

func TestPresetsMatchReference(t *testing.T) {
	fixtures := []*lts.LTS{diamondLTS(), ringLTS(), tauCycleLTS()}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		fixtures = append(fixtures, randLTS{}.Generate(rng, 0).Interface().(randLTS).L)
	}
	for _, l := range fixtures {
		for _, f := range append(presetFormulas(), alternatingFormulas()...) {
			sameAsReference(t, l, f)
		}
	}
}

// formulaGen draws well-formed formulas over the labels of randLTS:
// variables are drawn only where their negation parity matches their
// binder's, and names come from a pool of three, so shadowing and open
// nested fixpoints of either sign occur.
type formulaGen struct{ rng *rand.Rand }

type genBinding struct {
	name     string
	positive bool
}

func (g formulaGen) action() ActionFormula {
	switch g.rng.Intn(7) {
	case 0:
		return AnyAction()
	case 1:
		return TauAction()
	case 2:
		return NotAction(Action("a"))
	case 3:
		return OrAction(Action("b"), TauAction())
	case 4:
		return MustActionRegex("[ab]")
	default:
		return Action(string(rune('a' + g.rng.Intn(3))))
	}
}

// formula draws a formula of height at most depth with at most fix
// further fixpoints on any path.
func (g formulaGen) formula(depth, fix int, scope []genBinding, positive bool) Formula {
	r := g.rng
	if depth <= 1 || r.Intn(8) == 0 {
		var vars []string
		seen := map[string]bool{}
		for i := len(scope) - 1; i >= 0; i-- { // innermost binding of each name
			if b := scope[i]; !seen[b.name] {
				seen[b.name] = true
				if b.positive == positive {
					vars = append(vars, b.name)
				}
			}
		}
		if len(vars) > 0 && r.Intn(3) > 0 {
			return Var(vars[r.Intn(len(vars))])
		}
		if r.Intn(2) == 0 {
			return True()
		}
		return False()
	}
	sub := func() Formula { return g.formula(depth-1, fix, scope, positive) }
	switch k := r.Intn(11); {
	case k == 0:
		return Not(g.formula(depth-1, fix, scope, !positive))
	case k == 1:
		return And(sub(), sub())
	case k == 2:
		return Or(sub(), sub())
	case k <= 4:
		return Dia(g.action(), sub())
	case k <= 6:
		return Box(g.action(), sub())
	case fix > 0:
		name := string(rune('X' + r.Intn(3)))
		body := g.formula(depth-1, fix-1, append(scope[:len(scope):len(scope)], genBinding{name, positive}), positive)
		if k <= 8 {
			return Mu(name, body)
		}
		return Nu(name, body)
	default:
		return sub()
	}
}

type randFormula struct{ F Formula }

func (randFormula) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randFormula{formulaGen{rng}.formula(8, 4, nil, true)})
}

func TestQuickRandomFormulasMatchReference(t *testing.T) {
	fixpoints := 0
	prop := func(r randLTS, f randFormula) bool {
		fixpoints += strings.Count(f.F.String(), "mu ") + strings.Count(f.F.String(), "nu ")
		return sameAsReference(t, r.L, f.F)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(26))}); err != nil {
		t.Error(err)
	}
	if fixpoints < 1000 {
		t.Errorf("only %d fixpoints drawn over 1000 formulas", fixpoints)
	}
}

// experimentModels builds the models of the paper's functional flow:
// the xSTream queue variants (E1), the FAUST routers (E2) and the fork
// implementations (E3). The 65,329-state handshake router is left out
// under -short.
func experimentModels(t testing.TB) []*lts.LTS {
	var out []*lts.LTS
	for _, v := range []xstream.Variant{xstream.Correct, xstream.CreditLeak, xstream.OptimisticPush} {
		for _, capacity := range []int{2, 4} {
			l, err := xstream.FunctionalModel(xstream.Config{Capacity: capacity, Values: 2, Variant: v, WithFlush: v != xstream.OptimisticPush})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, l)
		}
	}
	type router struct {
		ports  int
		inputs []int
		hs     bool
	}
	routers := []router{{2, nil, false}, {3, []int{0, 1}, false}, {3, nil, false}}
	if !testing.Short() {
		routers = append(routers, router{3, nil, true})
	}
	for _, r := range routers {
		out = append(out, routerLTS(t, r.ports, r.inputs, r.hs))
	}
	for _, v := range []faust.ForkVariant{faust.ForkWaitBoth, faust.ForkIsochronic, faust.ForkUnsafe} {
		l, err := faust.ForkImpl(2, v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
	return out
}

// routerLTS generates a FAUST router with its crossbar wires hidden, as
// the verification flow checks it.
func routerLTS(t testing.TB, ports int, inputs []int, handshake bool) *lts.LTS {
	l, err := faust.RouterLTS(context.Background(), faust.RouterConfig{Ports: ports, InputsActive: inputs},
		chp.Options{HandshakeExpand: handshake}, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// modelQueries returns the flow's queries on l: deadlock freedom, the
// experiment properties, and the seeded reachable / inevitable /
// response queries over labels drawn from l.
func modelQueries(l *lts.LTS, rng *rand.Rand) []Formula {
	var labels []string
	for _, lab := range l.Labels() {
		if lab != lts.Tau {
			labels = append(labels, lab)
		}
	}
	draw := func() ActionFormula { return Action(labels[rng.Intn(len(labels))]) }
	return []Formula{
		DeadlockFree(),
		NeverEnabled(Action("overflow")),
		Reachable(Not(Dia(AnyAction(), True()))),
		ReachableAction(draw()),
		Inevitable(Dia(draw(), True())),
		Response(draw(), draw()),
		Livelock(),
	}
}

func TestExperimentModelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range experimentModels(t) {
		for _, f := range modelQueries(l, rng) {
			sameAsReference(t, l, f)
		}
	}
}

// TestVerifyCancelled: a check on the 65,329-state router with a
// cancelled context returns context.Canceled at once instead of solving.
func TestVerifyCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the 65,329-state router")
	}
	l := routerLTS(t, 3, nil, true)
	f, err := ParseQuery("response:" + l.LabelName(1) + "->" + l.LabelName(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = Verify(ctx, l, f)
	if elapsed := time.Since(start); !errors.Is(err, context.Canceled) || elapsed > 50*time.Millisecond {
		t.Fatalf("Verify with a cancelled context: err %v after %v, want context.Canceled within 50ms", err, elapsed)
	}
}

// countingCtx is a context whose Err reports cancellation from its
// cancelAt-th call on (never when cancelAt is 0), and counts the calls.
type countingCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *countingCtx) Err() error {
	if c.calls++; c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestCancelDuringSolve: the solver observes its context while draining
// a worklist, so a cancellation at any of its checks, the last one in
// the middle of a 65,536-state propagation included, ends the solve
// with the context's error.
func TestCancelDuringSolve(t *testing.T) {
	const n = 1 << 16
	l := lts.New("chain")
	l.AddStates(n)
	for s := 0; s+1 < n; s++ {
		l.AddTransition(lts.State(s), "a", lts.State(s+1))
	}
	l.AddTransition(n-1, "b", n-1)
	f := Reachable(Dia(Action("b"), True()))
	count := &countingCtx{Context: context.Background()}
	set, err := Sat(count, l, f)
	if err != nil || set.Count() != n {
		t.Fatalf("Sat: %d states (err %v), want %d", set.Count(), err, n)
	}
	if count.calls < n/4096 {
		t.Fatalf("%d context checks while firing %d states, want at least one per 4096", count.calls, n)
	}
	for at := 1; at <= count.calls; at++ {
		if _, err := Sat(&countingCtx{Context: context.Background(), cancelAt: at}, l, f); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at check %d of %d: err %v, want context.Canceled", at, count.calls, err)
		}
	}
}

// TestEvaluateMaxNesting evaluates formulas MaxNesting levels high on a
// goroutine stack capped far below what a walk recursing once per level
// would need, and compares each with a flat formula of the same meaning.
func TestEvaluateMaxNesting(t *testing.T) {
	l := lts.New("line")
	l.AddStates(4)
	l.AddTransition(0, "a", 1)
	l.AddTransition(1, "a", 2)
	l.AddTransition(2, "a", 1)
	l.AddTransition(2, "b", 3)
	reachB := Reachable(Dia(Action("b"), True()))
	cases := []struct {
		name string
		src  string // height MaxNesting
		same Formula
	}{
		{"not", strings.Repeat("not ", MaxNesting-1) + "true", False()},
		{"diamond", strings.Repeat("<a> ", MaxNesting-1) + "true", Dia(Action("a"), True())},
		{"action", "<" + strings.Repeat("~", MaxNesting-2) + "a> true", Dia(Action("a"), True())},
		// Open fixpoints of one sign nested MaxNesting/2-2 deep: a
		// single block.
		{"open mu", openChain(MaxNesting/2 - 2), reachB},
		// Closed fixpoints nested MaxNesting/3-1 deep: a block each.
		{"closed", closedChain(MaxNesting/3 - 1), And(Dia(Action("a"), True()), reachB)},
	}
	for _, c := range cases {
		f, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := Sat(bg, l, c.same)
		if err != nil {
			t.Fatal(err)
		}
		var got StateSet
		done := make(chan error)
		func() {
			defer debug.SetMaxStack(debug.SetMaxStack(64 << 10))
			go func() {
				var err error
				got, err = Sat(bg, l, f)
				done <- err
			}()
			err = <-done
		}()
		if err != nil || !got.equal(want) {
			t.Errorf("%s: Sat = %v (err %v), want %v", c.name, got, err, want)
		}
	}
}

// openChain is mu X0 . (<b> true or <a> X0 or mu X1 . (<a> X1 or <a> X0
// or mu X2 ...)) with k fixpoints: every one reaches a b through
// a-steps, each reading its own and the outermost variable.
func openChain(k int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "mu X%d . (<a> X%d or <a> X0 or ", i, i)
	}
	b.WriteString("<b> true")
	b.WriteString(strings.Repeat(")", k))
	return b.String()
}

// closedChain is <a> mu X0 . (<b> true or <a> X0) and (<a> mu X1 . ...)
// nested k deep: each fixpoint is closed.
func closedChain(k int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "(<a> true and mu X%d . (<b> true or <a> X%d or ", i, i)
	}
	b.WriteString("false")
	b.WriteString(strings.Repeat("))", k))
	return b.String()
}
