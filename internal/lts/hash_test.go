package lts

import (
	"math/rand"
	"testing"
)

// buildShuffled builds the same three-state system with transitions added
// in the given order and labels interned in the given order.
func buildShuffled(labelOrder []string, transOrder []int) *LTS {
	l := New("h")
	l.AddStates(3)
	for _, lab := range labelOrder {
		l.LabelID(lab)
	}
	trans := []Transition{
		{Src: 0, Label: l.LabelID("a"), Dst: 1},
		{Src: 0, Label: l.LabelID("b"), Dst: 2},
		{Src: 1, Label: l.LabelID(Tau), Dst: 2},
		{Src: 2, Label: l.LabelID("a"), Dst: 0},
	}
	for _, i := range transOrder {
		t := trans[i]
		l.AddTransitionID(t.Src, t.Label, t.Dst)
	}
	l.SetInitial(1)
	return l
}

func TestHashCanonical(t *testing.T) {
	base := buildShuffled([]string{"a", "b", Tau}, []int{0, 1, 2, 3}).Hash()
	if base == "" {
		t.Fatal("empty hash")
	}
	// Transition insertion order and label interning order are invisible.
	for _, tc := range []struct {
		labels []string
		order  []int
	}{
		{[]string{Tau, "b", "a"}, []int{3, 2, 1, 0}},
		{[]string{"b"}, []int{2, 0, 3, 1}},
		{nil, []int{1, 3, 0, 2}},
	} {
		if got := buildShuffled(tc.labels, tc.order).Hash(); got != base {
			t.Errorf("hash varies with build order %v/%v: %s != %s", tc.labels, tc.order, got, base)
		}
	}
	// Unused interned labels are invisible.
	withUnused := buildShuffled([]string{"zzz", "a"}, []int{0, 1, 2, 3})
	if got := withUnused.Hash(); got != base {
		t.Errorf("unused label changed the hash: %s != %s", got, base)
	}
	// A copy hashes like its original.
	if got := buildShuffled(nil, []int{0, 1, 2, 3}).Copy().Hash(); got != base {
		t.Errorf("copy changed the hash: %s != %s", got, base)
	}
}

func TestHashSensitive(t *testing.T) {
	base := buildShuffled(nil, []int{0, 1, 2, 3})
	seen := map[string]string{base.Hash(): "base"}
	record := func(name string, l *LTS) {
		h := l.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[h] = name
	}

	// A changed initial state.
	moved := base.Copy()
	moved.SetInitial(0)
	record("initial", moved)

	// An extra (unreachable) state.
	grown := base.Copy()
	grown.AddState()
	record("extra state", grown)

	// An extra transition, a relabeled transition, a redirected one.
	extra := base.Copy()
	extra.AddTransition(2, "b", 1)
	record("extra transition", extra)
	relabeled := buildShuffled(nil, []int{0, 1, 2})
	relabeled.AddTransition(2, "c", 0)
	relabeled.SetInitial(1)
	record("relabeled", relabeled)
	redirected := buildShuffled(nil, []int{0, 1, 2})
	redirected.AddTransition(2, "a", 1)
	redirected.SetInitial(1)
	record("redirected", redirected)

	// A duplicated transition: the digest covers the multiset.
	doubled := base.Copy()
	doubled.AddTransition(0, "a", 1)
	record("duplicated transition", doubled)
}

// TestHashRandomStability: hashing is deterministic across repeated
// calls on randomly built systems.
func TestHashRandomStability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		l := New("r")
		l.AddStates(n)
		labels := []string{"a", "b", "c", Tau, "d !1"}
		for i := 0; i < 3*n; i++ {
			l.AddTransition(State(rng.Intn(n)), labels[rng.Intn(len(labels))], State(rng.Intn(n)))
		}
		l.SetInitial(State(rng.Intn(n)))
		if h1, h2 := l.Hash(), l.Hash(); h1 != h2 {
			t.Fatalf("trial %d: repeated hashes differ: %s != %s", trial, h1, h2)
		}
	}
}
