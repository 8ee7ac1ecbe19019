package mcl

import (
	"strings"
	"testing"

	"multival/internal/lts"
)

// tauCycleLTS builds 0 -a-> 1 -tau-> 2 -tau-> 1: a reachable internal
// cycle (livelock) with no deadlock.
func tauCycleLTS() *lts.LTS {
	l := lts.New("tau-cycle")
	l.AddStates(3)
	l.AddTransition(0, "a", 1)
	l.AddTransition(1, lts.Tau, 2)
	l.AddTransition(2, lts.Tau, 1)
	l.SetInitial(0)
	return l
}

// TestPresetsOnKnownModels pins the derived operators of presets.go to
// hand-checked verdicts on the three small fixtures, so a regression in
// the preset constructions (and not just the core evaluator) fails loudly.
func TestPresetsOnKnownModels(t *testing.T) {
	diamond, ring, tauCycle := diamondLTS(), ringLTS(), tauCycleLTS()
	cases := []struct {
		name string
		l    *lts.LTS
		f    Formula
		want bool
	}{
		{"diamond: b reachable", diamond, ReachableAction(Action("b")), true},
		{"diamond: z not reachable", diamond, ReachableAction(Action("z")), false},
		{"diamond: deadlock state 3", diamond, DeadlockFree(), false},
		{"diamond: inevitably stuck", diamond, Inevitable(Not(Dia(AnyAction(), True()))), true},
		{"diamond: invariant fails at 3", diamond, Invariant(Dia(AnyAction(), True())), false},
		{"diamond: never z holds", diamond, NeverEnabled(Action("z")), true},
		{"diamond: never b fails", diamond, NeverEnabled(Action("b")), false},
		{"diamond: a responded by b", diamond, Response(Action("a"), Action("b")), true},
		{"diamond: a not responded by d", diamond, Response(Action("a"), Action("d")), false},
		{"ring: deadlock-free", ring, DeadlockFree(), true},
		{"ring: invariant some move", ring, Invariant(Dia(AnyAction(), True())), true},
		{"ring: c inevitable", ring, Inevitable(Dia(Action("c"), True())), true}, // cycle visits 2
		{"diamond: b not inevitable", diamond, Inevitable(Dia(Action("b"), True())), false},
		{"ring: c reachable", ring, ReachableAction(Action("c")), true},
		{"ring: every a responded by b", ring, Response(Action("a"), Action("b")), true},
		{"ring: no livelock", ring, Livelock(), false},
		{"tau-cycle: livelock", tauCycle, Livelock(), true},
		{"tau-cycle: deadlock-free", tauCycle, DeadlockFree(), true},
		{"tau-cycle: tau-reach only after a", tauCycle, TauReach(Dia(TauAction(), True())), false},
		{"tau-cycle: weak dia a", tauCycle, WeakDia(Action("a"), True()), true},
		{"tau-cycle: weak dia z", tauCycle, WeakDia(Action("z"), True()), false},
	}
	for _, c := range cases {
		got, err := Check(bg, c.l, c.f)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: got %v, want %v (formula %s)", c.name, got, c.want, c.f)
		}
	}
}

// TestPresetsParseBack checks that every preset prints to a formula the
// parser accepts and that re-checking the parsed form gives the same
// verdict — the server caches check artifacts by the query string, so
// String/Parse round-trips must stay faithful.
func TestPresetsParseBack(t *testing.T) {
	l := diamondLTS()
	presets := []Formula{
		DeadlockFree(),
		Livelock(),
		ReachableAction(Action("b")),
		NeverEnabled(Action("z")),
		Inevitable(Dia(Action("b"), True())),
		Response(Action("a"), Action("b")),
		Invariant(Dia(AnyAction(), True())),
	}
	for _, f := range presets {
		src := f.String()
		parsed, err := Parse(src)
		if err != nil {
			t.Fatalf("preset %s does not parse back: %v", src, err)
		}
		want, err := Check(bg, l, f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Check(bg, l, parsed)
		if err != nil {
			t.Fatalf("checking parsed %s: %v", src, err)
		}
		if got != want {
			t.Errorf("preset %s: parsed verdict %v != constructed %v", src, got, want)
		}
	}
}

// TestParseQuery covers the preset vocabulary of the serve layer and the
// raw-formula fallback.
func TestParseQuery(t *testing.T) {
	diamond, ring := diamondLTS(), ringLTS()
	cases := []struct {
		query string
		l     *lts.LTS
		want  bool
	}{
		{"deadlock", ring, true},
		{"deadlock", diamond, false},
		{"deadlock-free", ring, true},
		{"livelock", ring, false},
		{"reachable:b", diamond, true},
		{"reachable:z", diamond, false},
		{"never:z", diamond, true},
		{"never:b", diamond, false},
		{"inevitable:c", ring, true},
		{"inevitable:b", diamond, false},
		{"response:a->b", ring, true},
		{"response: a -> b ", ring, true}, // whitespace-tolerant
		{"<a> true", diamond, true},       // raw formula fallback
		{"mu X . (<c> true or <true> X)", diamond, true},
	}
	for _, c := range cases {
		f, err := ParseQuery(c.query)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", c.query, err)
		}
		got, err := Check(bg, c.l, f)
		if err != nil {
			t.Fatalf("checking %q: %v", c.query, err)
		}
		if got != c.want {
			t.Errorf("query %q: got %v, want %v", c.query, got, c.want)
		}
	}
}

// TestParseQueryErrors: malformed queries are rejected with a message
// naming the problem, not silently parsed as formulas.
func TestParseQueryErrors(t *testing.T) {
	for _, q := range []string{
		"", "  ", "deadlock:arg", "livelock:x", "reachable:", "never:",
		"inevitable:", "response:a", "response:->b", "not a formula ((",
	} {
		if _, err := ParseQuery(q); err == nil {
			t.Errorf("ParseQuery(%q) unexpectedly succeeded", q)
		} else if !strings.Contains(err.Error(), "mcl:") {
			t.Errorf("ParseQuery(%q) error %q lacks package prefix", q, err)
		}
	}
}
