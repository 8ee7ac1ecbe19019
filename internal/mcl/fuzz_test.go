package mcl

import (
	"strings"
	"testing"
)

// FuzzParseQuery feeds arbitrary query strings — the property vocabulary
// serve and sweep requests carry — to ParseQuery. It must never panic,
// every rejection must carry the package prefix, and an accepted
// formula must print to text that parses back and prints identically.
func FuzzParseQuery(f *testing.F) {
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
		`<"0"> true`, `<"any"> true`,
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
	})
}
