package aut

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"multival/internal/lts"
)

func TestWriteRead(t *testing.T) {
	l := lts.New("t")
	l.AddStates(3)
	l.AddTransition(0, "SEND !1", 1)
	l.AddTransition(1, lts.Tau, 2)
	l.AddTransition(2, "recv", 0)
	l.SetInitial(1)

	text := WriteString(l)
	got, err := ReadString(text)
	if err != nil {
		t.Fatalf("ReadString: %v\ninput:\n%s", err, text)
	}
	if got.NumStates() != 3 || got.NumTransitions() != 3 {
		t.Fatalf("roundtrip size mismatch: %v", got)
	}
	if got.Initial() != 1 {
		t.Fatalf("initial = %d, want 1", got.Initial())
	}
	if !got.HasTransition(0, got.LookupLabel("SEND !1"), 1) {
		t.Error("quoted label lost")
	}
	if !got.HasTransition(1, got.LookupLabel(lts.Tau), 2) {
		t.Error("tau transition lost")
	}
}

func TestQuoteLabel(t *testing.T) {
	cases := map[string]string{
		"abc":        "abc",
		"a_b9":       "a_b9",
		"a b":        `"a b"`,
		"x!1":        `"x!1"`,
		`q"u`:        `"q\"u"`,
		`back\slash`: `"back\\slash"`,
		"":           `""`,
	}
	for in, want := range cases {
		if got := QuoteLabel(in); got != want {
			t.Errorf("QuoteLabel(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"no des", "xyz (0, 0, 1)"},
		{"bad fields", "des (0, 0)"},
		{"bad number", "des (0, x, 1)"},
		{"init out of range", "des (5, 0, 2)"},
		{"zero states", "des (0, 0, 0)"},
		{"too many states", "des (0, 0, 4194305)"},
		{"state out of range", "des (0, 1, 2)\n(0, a, 9)"},
		{"count mismatch", "des (0, 2, 2)\n(0, a, 1)"},
		{"unterminated quote", "des (0, 1, 2)\n(0, \"a, 1)"},
		{"no parens", "des (0, 1, 2)\n0, a, 1"},
		{"missing comma", "des (0, 1, 2)\n(0 a 1)"},
	}
	for _, c := range cases {
		if _, err := ReadString(c.in); err == nil {
			t.Errorf("%s: expected error, got none", c.name)
		}
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	in := "\n\ndes (0, 1, 2)\n\n(0, a, 1)\n\n"
	l, err := ReadString(in)
	if err != nil {
		t.Fatalf("ReadString: %v", err)
	}
	if l.NumTransitions() != 1 {
		t.Fatalf("NumTransitions = %d", l.NumTransitions())
	}
}

func TestRoundtripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 25; i++ {
		l := lts.Random(rng, lts.RandomConfig{
			States: 15, Labels: 4, Density: 2.5, TauProb: 0.2, Connect: true,
		})
		got, err := ReadString(WriteString(l))
		if err != nil {
			t.Fatalf("roundtrip %d: %v", i, err)
		}
		// The format preserves state numbering exactly, so the edge
		// multisets must match verbatim (stronger than isomorphism; the
		// writer may reorder transitions into canonical order).
		if got.NumStates() != l.NumStates() || got.Initial() != l.Initial() {
			t.Fatalf("roundtrip %d: states changed", i)
		}
		ea, eb := edgeSet(l), edgeSet(got)
		if len(ea) != len(eb) {
			t.Fatalf("roundtrip %d: transition count changed", i)
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("roundtrip %d: LTS changed", i)
			}
		}
	}
}

func TestLabelsWithCommasAndParens(t *testing.T) {
	l := lts.New("t")
	l.AddStates(2)
	l.AddTransition(0, "f(a, b)", 1)
	got, err := ReadString(WriteString(l))
	if err != nil {
		t.Fatalf("roundtrip: %v", err)
	}
	if got.LookupLabel("f(a, b)") == -1 {
		t.Fatalf("label with comma/parens lost: %v", got.Labels())
	}
}

func TestHeaderFormat(t *testing.T) {
	l := lts.New("t")
	l.AddStates(2)
	l.AddTransition(0, "a", 1)
	l.SetInitial(0)
	text := WriteString(l)
	if !strings.HasPrefix(text, "des (0, 1, 2)\n") {
		t.Fatalf("header = %q", strings.SplitN(text, "\n", 2)[0])
	}
}

// TestReadHeaderAllocation bounds what a bare header costs: declaring the
// largest state count allocates a constant amount before any transition
// is read, because states carry no storage of their own. The bound is
// the scanner's 64 KB line buffer plus 64 KB. It was about 279 B per declared state when the per-state
// tables regrew once per state, then about 48 B per state once they grew
// in one step.
func TestReadHeaderAllocation(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := ReadString("des (0, 0, 4194304)")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates() != maxStates {
		t.Fatalf("NumStates = %d, want %d", l.NumStates(), maxStates)
	}
	if total := after.TotalAlloc - before.TotalAlloc; total > 128<<10 {
		t.Fatalf("header allocated %d B for %d declared states, want at most 128 KB", total, maxStates)
	}
}
