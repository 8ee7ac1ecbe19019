package lts

import (
	"strings"
	"testing"
)

// chain builds 0 --a--> 1 --b--> 2 ... with the given labels.
func chain(t *testing.T, labels ...string) *LTS {
	t.Helper()
	l := New("chain")
	l.AddStates(len(labels) + 1)
	for i, lab := range labels {
		l.AddTransition(State(i), lab, State(i+1))
	}
	l.SetInitial(0)
	return l
}

func TestEmptyLTS(t *testing.T) {
	l := New("empty")
	if l.NumStates() != 0 || l.NumTransitions() != 0 {
		t.Fatalf("empty LTS has %d states, %d transitions", l.NumStates(), l.NumTransitions())
	}
	if got := len(l.DeadlockStates()); got != 0 {
		t.Fatalf("empty LTS has %d deadlock states", got)
	}
}

func TestAddStateAndTransition(t *testing.T) {
	l := New("t")
	s0 := l.AddState()
	s1 := l.AddState()
	if s0 != 0 || s1 != 1 {
		t.Fatalf("states numbered %d,%d; want 0,1", s0, s1)
	}
	l.AddTransition(s0, "a", s1)
	l.AddTransition(s0, "b", s0)
	if l.NumTransitions() != 2 {
		t.Fatalf("NumTransitions = %d, want 2", l.NumTransitions())
	}
	labs, dsts := l.Out(s0)
	if len(labs) != 2 {
		t.Fatalf("Out(s0) = %d edges, want 2", len(labs))
	}
	if l.LabelName(int(labs[0])) != "a" || State(dsts[0]) != s1 {
		t.Errorf("first edge = %v --%v--> %v", s0, labs[0], dsts[0])
	}
	if !l.HasTransition(s0, l.LookupLabel("b"), s0) {
		t.Error("missing b self-loop")
	}
	if l.HasTransition(s1, l.LookupLabel("a"), s0) {
		t.Error("phantom transition reported")
	}
}

func TestLabelInterning(t *testing.T) {
	l := New("t")
	a1 := l.LabelID("a")
	b := l.LabelID("b")
	a2 := l.LabelID("a")
	if a1 != a2 {
		t.Errorf("label a interned twice: %d and %d", a1, a2)
	}
	if a1 == b {
		t.Errorf("distinct labels share id %d", a1)
	}
	if l.LookupLabel("zzz") != -1 {
		t.Error("LookupLabel of unknown label should be -1")
	}
	if l.NumLabels() != 2 {
		t.Errorf("NumLabels = %d, want 2", l.NumLabels())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	l := New("t")
	l.AddState()
	for name, f := range map[string]func(){
		"SetInitial":  func() { l.SetInitial(5) },
		"AddTransSrc": func() { l.AddTransition(7, "a", 0) },
		"AddTransDst": func() { l.AddTransition(0, "a", 7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSuccessorsDedup(t *testing.T) {
	l := New("t")
	l.AddStates(3)
	l.AddTransition(0, "a", 1)
	l.AddTransition(0, "a", 1) // duplicate edge
	l.AddTransition(0, "a", 2)
	l.AddTransition(0, "b", 2)
	succ := l.Successors(0, l.LookupLabel("a"))
	if len(succ) != 2 || succ[0] != 1 || succ[1] != 2 {
		t.Fatalf("Successors = %v, want [1 2]", succ)
	}
}

func TestDeadlockStates(t *testing.T) {
	l := chain(t, "a", "b")
	dead := l.DeadlockStates()
	if len(dead) != 1 || dead[0] != 2 {
		t.Fatalf("DeadlockStates = %v, want [2]", dead)
	}
	if l.IsDeadlock(0) || !l.IsDeadlock(2) {
		t.Error("IsDeadlock misclassifies")
	}
}

func TestCopyIsDeep(t *testing.T) {
	l := chain(t, "a")
	c := l.Copy()
	c.AddTransition(1, "extra", 0)
	if l.NumTransitions() != 1 {
		t.Fatal("mutation of copy leaked into original")
	}
	if c.NumTransitions() != 2 {
		t.Fatal("copy did not accept new transition")
	}
	if c.LookupLabel("a") == -1 {
		t.Fatal("copy lost label table")
	}
}

func TestStats(t *testing.T) {
	l := New("t")
	l.AddStates(3)
	l.AddTransition(0, "a", 1)
	l.AddTransition(1, Tau, 2)
	st := l.Stats()
	if st.States != 3 || st.Transitions != 2 || st.TauCount != 1 || st.Deadlocks != 1 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestDumpAndString(t *testing.T) {
	l := chain(t, "a")
	if !strings.Contains(l.Dump(), "0 --a--> 1") {
		t.Errorf("Dump missing edge: %q", l.Dump())
	}
	if !strings.Contains(l.String(), "2 states") {
		t.Errorf("String = %q", l.String())
	}
}

func TestEachIncoming(t *testing.T) {
	l := New("t")
	l.AddStates(3)
	l.AddTransition(0, "a", 2)
	l.AddTransition(1, "b", 2)
	var n int
	l.EachIncoming(2, func(tr Transition) { n++ })
	if n != 2 {
		t.Fatalf("EachIncoming visited %d edges, want 2", n)
	}
}

func TestGate(t *testing.T) {
	cases := map[string]string{
		"c !1":       "c",
		"done":       "done",
		"g !1 !true": "g",
	}
	for lab, want := range cases {
		if got := Gate(lab); got != want {
			t.Errorf("Gate(%q) = %q, want %q", lab, got, want)
		}
	}
}
