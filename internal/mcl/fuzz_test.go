package mcl

import (
	"strings"
	"testing"

	"multival/internal/lts"
)

// FuzzParseQuery feeds arbitrary query strings — the property vocabulary
// serve and sweep requests carry — to ParseQuery. It must never panic,
// every rejection must carry the package prefix, an accepted formula
// must print to text that parses back and prints identically, and the
// compiled evaluator must agree with the reference one on it over a
// fixed small LTS (where fixpoints nest at most five deep: the
// reference iterates each nesting level to its fixpoint from scratch).
func FuzzParseQuery(f *testing.F) {
	l := lts.New("fuzz")
	l.AddStates(4)
	l.AddTransition(0, "a", 1)
	l.AddTransition(1, "b", 2)
	l.AddTransition(2, lts.Tau, 0)
	l.AddTransition(1, "c", 3)
	l.AddTransition(2, "a", 2)
	for _, seed := range []string{
		"deadlock", "deadlock-free", "deadlockfree", "livelock",
		"reachable:b", "never:z", "inevitable:c", "response:a->b",
		"response: a -> b ", "deadlock:arg", "reachable:", "response:->b",
		"true", "false", "<a> true", "[a] <b> true", "not <b> true",
		"<a> true and <c> true", "<a> true or <zz> true", "<a> true -> <c> true",
		`<"a"> true`, `<"push !0"> true`, "mu X . (<b> true or <true> X)",
		"nu X . (<true> true and [true] X)", "< /a|c/ > true", "<~tau> true",
		"[a | c] <b | d> true", "<a & ~b> true", "mu X . </(/ > X",
		`<"unterminated> true`, "not a formula ((", `</a\/b/> true`,
		`<"0"> true`, `<"any"> true`, "nu X . mu Y . (<b> X or <true> Y)",
		"mu X . nu Y . ([a] X and [~a] Y)", "not nu X . <a> X or mu X . [b] X",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, q string) {
		form, err := ParseQuery(q)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "mcl:") {
				t.Fatalf("ParseQuery(%q) error %q lacks the package prefix", q, err)
			}
			return
		}
		printed := form.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("ParseQuery(%q) printed %q, which does not parse: %v", q, printed, err)
		}
		if again := back.String(); again != printed {
			t.Fatalf("ParseQuery(%q): print %q reparses to %q", q, printed, again)
		}
		if fixpointDepth(form) <= 5 {
			sameAsReference(t, l, form)
		} else if _, err := Verify(bg, l, form); err != nil {
			t.Fatalf("ParseQuery(%q): %v", q, err)
		}
	})
}

// fixpointDepth is the largest number of fixpoints on one path of f.
func fixpointDepth(f Formula) int {
	switch g := f.(type) {
	case fNot:
		return fixpointDepth(g.f)
	case fAnd:
		return max(fixpointDepth(g.a), fixpointDepth(g.b))
	case fOr:
		return max(fixpointDepth(g.a), fixpointDepth(g.b))
	case fDia:
		return fixpointDepth(g.f)
	case fBox:
		return fixpointDepth(g.f)
	case fMu:
		return 1 + fixpointDepth(g.body)
	case fNu:
		return 1 + fixpointDepth(g.body)
	}
	return 0
}
