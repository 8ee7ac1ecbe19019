package process

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randExpr generates random closed integer expressions, avoiding division
// to keep evaluation total.
type randExpr struct{ E Expr }

func genExpr(rng *rand.Rand, depth int, vars []string) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		if len(vars) > 0 && rng.Intn(2) == 0 {
			return V(vars[rng.Intn(len(vars))])
		}
		return Int(rng.Intn(21) - 10)
	}
	switch rng.Intn(4) {
	case 0:
		return Add(genExpr(rng, depth-1, vars), genExpr(rng, depth-1, vars))
	case 1:
		return Sub(genExpr(rng, depth-1, vars), genExpr(rng, depth-1, vars))
	case 2:
		return Mul(genExpr(rng, depth-1, vars), genExpr(rng, depth-1, vars))
	default:
		return Neg{genExpr(rng, depth-1, vars)}
	}
}

func (randExpr) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randExpr{genExpr(rng, 4, []string{"x", "y"})})
}

func qcfg() *quick.Config {
	return &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(31))}
}

// evalGo mirrors expression evaluation in plain Go for cross-checking.
func evalGo(e Expr, x, y int) int {
	switch t := e.(type) {
	case IntLit:
		return t.V
	case VarRef:
		if t.Name == "x" {
			return x
		}
		return y
	case Binary:
		a, b := evalGo(t.A, x, y), evalGo(t.B, x, y)
		switch t.Op {
		case OpAdd:
			return a + b
		case OpSub:
			return a - b
		case OpMul:
			return a * b
		}
	case Neg:
		return -evalGo(t.X, x, y)
	}
	panic("unexpected expression")
}

func TestQuickExprSubstEval(t *testing.T) {
	prop := func(r randExpr, xRaw, yRaw int8) bool {
		x, y := int(xRaw), int(yRaw)
		closed := r.E.substExpr("x", IntVal(x)).substExpr("y", IntVal(y))
		got, err := closed.Eval()
		if err != nil {
			return false
		}
		return got == IntVal(evalGo(r.E, x, y))
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickSubstitutionOrderIrrelevant(t *testing.T) {
	prop := func(r randExpr, xRaw, yRaw int8) bool {
		x, y := IntVal(int(xRaw)), IntVal(int(yRaw))
		a := r.E.substExpr("x", x).substExpr("y", y)
		b := r.E.substExpr("y", y).substExpr("x", x)
		va, err1 := a.Eval()
		vb, err2 := b.Eval()
		return err1 == nil && err2 == nil && va == vb
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}

// randBehavior generates small random behaviour terms over gates a,b,c.
type randBehavior struct{ B Behavior }

func genBehavior(rng *rand.Rand, depth int) Behavior {
	gates := []string{"a", "b", "c"}
	if depth <= 0 {
		if rng.Intn(4) == 0 {
			return Exit{}
		}
		return Stop{}
	}
	switch rng.Intn(5) {
	case 0, 1:
		return Do(gates[rng.Intn(len(gates))], genBehavior(rng, depth-1))
	case 2:
		return Choice{genBehavior(rng, depth-1), genBehavior(rng, depth-1)}
	case 3:
		return Par{A: genBehavior(rng, depth-1), B: genBehavior(rng, depth-1)}
	default:
		g := gates[rng.Intn(len(gates))]
		return Par{Sync: []string{g}, A: genBehavior(rng, depth-1), B: genBehavior(rng, depth-1)}
	}
}

func (randBehavior) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randBehavior{genBehavior(rng, 3)})
}

func TestQuickChoiceCommutative(t *testing.T) {
	prop := func(p, q randBehavior) bool {
		l1, err1 := generateBehavior("pq", Choice{p.B, q.B}, GenOptions{MaxStates: 50000})
		l2, err2 := generateBehavior("qp", Choice{q.B, p.B}, GenOptions{MaxStates: 50000})
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return strongEquivalent(l1, l2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func TestQuickParCommutative(t *testing.T) {
	prop := func(p, q randBehavior) bool {
		l1, err1 := generateBehavior("pq", Par{A: p.B, B: q.B}, GenOptions{MaxStates: 50000})
		l2, err2 := generateBehavior("qp", Par{A: q.B, B: p.B}, GenOptions{MaxStates: 50000})
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return strongEquivalent(l1, l2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

func TestQuickChoiceIdempotentModuloBisim(t *testing.T) {
	prop := func(p randBehavior) bool {
		l1, err1 := generateBehavior("p", p.B, GenOptions{MaxStates: 50000})
		l2, err2 := generateBehavior("pp", Choice{p.B, p.B}, GenOptions{MaxStates: 50000})
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return strongEquivalent(l1, l2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

func TestQuickStopIsChoiceUnit(t *testing.T) {
	prop := func(p randBehavior) bool {
		l1, err1 := generateBehavior("p", p.B, GenOptions{MaxStates: 50000})
		l2, err2 := generateBehavior("p+0", Choice{p.B, Stop{}}, GenOptions{MaxStates: 50000})
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		return strongEquivalent(l1, l2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}

// randTerm generates random closed terms over every operator the store
// keys structurally (Par, Hide, Rename) mixed with the sequential ones
// (prefix with offers, Choice, Seq with value passing, Disable, Guard,
// recursive calls), so static operators also occur nested under
// sequential ones, as in (P ||| Q) >> R.
type randTerm struct{ B Behavior }

func genTerm(rng *rand.Rand, depth int) Behavior {
	gates := []string{"a", "b", "c"}
	gate := func() string { return gates[rng.Intn(len(gates))] }
	subset := func() []string {
		var out []string
		for _, g := range gates {
			if rng.Intn(2) == 0 {
				out = append(out, g)
			}
		}
		return out
	}
	if depth <= 0 {
		switch rng.Intn(5) {
		case 0:
			return Exit{}
		case 1:
			return Exit{[]Expr{Int(rng.Intn(2))}}
		case 2:
			return Call{Proc: "Loop"}
		case 3:
			return Call{Proc: "Count", Args: []Expr{Int(rng.Intn(3))}}
		default:
			return Stop{}
		}
	}
	sub := func() Behavior { return genTerm(rng, depth-1) }
	switch rng.Intn(11) {
	case 0:
		return Do(gate(), sub())
	case 1:
		return Act(gate(), []Offer{Recv("x", 0, 1)}, Act(gate(), []Offer{Send(V("x"))}, sub()))
	case 2:
		return Choice{sub(), sub()}
	case 3:
		return Par{A: sub(), B: sub()}
	case 4:
		return Par{Sync: subset(), A: sub(), B: sub()}
	case 5:
		return Hide{Gates: subset(), B: sub()}
	case 6:
		return Rename{Map: map[string]string{gate(): gate(), gate(): "z"}, B: sub()}
	case 7:
		return Seq{A: sub(), B: sub()}
	case 8:
		return Seq{A: sub(), Accept: []string{"y"}, B: Act(gate(), []Offer{Send(V("y"))}, sub())}
	case 9:
		return Disable{A: sub(), B: sub()}
	default:
		return Guard{Cond: Gt(Int(rng.Intn(3)), Int(0)), B: sub()}
	}
}

func (randTerm) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randTerm{genTerm(rng, 5)})
}

// TestQuickGenerateMatchesReference: on random terms, GenerateCtx and the
// string-keyed reference produce the identical LTS or the identical error
// (exit-arity mismatches and explosions of the small bound included).
func TestQuickGenerateMatchesReference(t *testing.T) {
	prop := func(r randTerm) bool {
		sys := NewSystem("quick")
		sys.Define("Loop", nil, Do("a", Call{Proc: "Loop"}))
		sys.Define("Count", []string{"n"}, Alt(
			Guard{Gt(V("n"), Int(0)), Do("b", Call{"Count", []Expr{Sub(V("n"), Int(1))}})},
			Guard{Eq(V("n"), Int(0)), Exit{}},
		))
		sys.SetRoot(r.B)
		_, diff, _ := checkAgainstReference(sys, GenOptions{MaxStates: 2000})
		if diff != "" {
			t.Logf("%s: %s", r.B, diff)
		}
		return diff == ""
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(15))}); err != nil {
		t.Error(err)
	}
}
