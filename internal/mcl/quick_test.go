package mcl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"multival/internal/lts"
)

type randLTS struct{ L *lts.LTS }

func (randLTS) Generate(rng *rand.Rand, size int) reflect.Value {
	l := lts.Random(rng, lts.RandomConfig{
		States:  2 + rng.Intn(15),
		Labels:  1 + rng.Intn(3),
		Density: 0.8 + rng.Float64()*2,
		TauProb: rng.Float64() * 0.3,
		Connect: true,
	})
	return reflect.ValueOf(randLTS{l})
}

func qcfg() *quick.Config {
	return &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(12))}
}

func TestQuickBoxDiaDuality(t *testing.T) {
	// [a]f == not <a> not f, for closed f.
	fs := []Formula{True(), False(), Dia(Action("a"), True()), DeadlockFree()}
	acts := []ActionFormula{AnyAction(), TauAction(), Action("a"), Action("b")}
	prop := func(r randLTS, fi, ai uint8) bool {
		f := fs[int(fi)%len(fs)]
		a := acts[int(ai)%len(acts)]
		box, err := Sat(bg, r.L, Box(a, f))
		if err != nil {
			return false
		}
		dual, err := Sat(bg, r.L, Not(Dia(a, Not(f))))
		if err != nil {
			return false
		}
		return box.equal(dual)
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	fs := []Formula{Dia(Action("a"), True()), Dia(Action("b"), True()), DeadlockFree()}
	prop := func(r randLTS, i, j uint8) bool {
		f := fs[int(i)%len(fs)]
		g := fs[int(j)%len(fs)]
		left, err := Sat(bg, r.L, Not(And(f, g)))
		if err != nil {
			return false
		}
		right, err := Sat(bg, r.L, Or(Not(f), Not(g)))
		if err != nil {
			return false
		}
		return left.equal(right)
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickFixpointUnrolling(t *testing.T) {
	// mu X. f or <any>X  ==  f or <any>(mu X. f or <any>X).
	prop := func(r randLTS, ai uint8) bool {
		target := Dia(Action(string(rune('a'+ai%3))), True())
		lhs, err := Sat(bg, r.L, Reachable(target))
		if err != nil {
			return false
		}
		rhs, err := Sat(bg, r.L, Or(target, Dia(AnyAction(), Reachable(target))))
		if err != nil {
			return false
		}
		return lhs.equal(rhs)
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickInvariantImpliesEverywhereReachable(t *testing.T) {
	// If AG f holds at the initial state, then f holds at every
	// reachable state.
	prop := func(r randLTS, ai uint8) bool {
		f := Dia(AnyAction(), True()) // "can move"
		if ai%2 == 0 {
			f = Not(Dia(Action("a"), True()))
		}
		agHolds, err := Check(bg, r.L, Invariant(f))
		if err != nil {
			return false
		}
		if !agHolds {
			return true // nothing to verify
		}
		fset, err := Sat(bg, r.L, f)
		if err != nil {
			return false
		}
		for s, reach := range r.L.Reachable() {
			if reach && !fset[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickDeadlockFreeMatchesStructure(t *testing.T) {
	prop := func(r randLTS) bool {
		holds, err := Check(bg, r.L, DeadlockFree())
		if err != nil {
			return false
		}
		// Structural check over reachable states.
		reach := r.L.Reachable()
		structural := true
		for s, ok := range reach {
			if ok && r.L.IsDeadlock(lts.State(s)) {
				structural = false
			}
		}
		return holds == structural
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickParserAgreesWithConstructors(t *testing.T) {
	pairs := []struct {
		src string
		f   Formula
	}{
		{"<a> true", Dia(Action("a"), True())},
		{"[tau] false", Box(TauAction(), False())},
		{"mu X . (<a> true or <true> X)", Reachable(Dia(Action("a"), True()))},
		{"nu X . (<true> true and [true] X)", DeadlockFree()},
	}
	prop := func(r randLTS, pi uint8) bool {
		p := pairs[int(pi)%len(pairs)]
		parsed, err := Parse(p.src)
		if err != nil {
			return false
		}
		s1, err := Sat(bg, r.L, parsed)
		if err != nil {
			return false
		}
		s2, err := Sat(bg, r.L, p.f)
		if err != nil {
			return false
		}
		return s1.equal(s2)
	}
	if err := quick.Check(prop, qcfg()); err != nil {
		t.Error(err)
	}
}
