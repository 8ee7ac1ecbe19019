package aut

import (
	"strings"
	"testing"

	"multival/internal/faust"
	"multival/internal/lts"
	"multival/internal/xstream"
)

// FuzzAutRoundTrip feeds arbitrary text to Read. Whatever Read accepts
// must write back to text that reads again as an equal LTS (same states,
// initial state and edge multiset) and writes byte-identically.
func FuzzAutRoundTrip(f *testing.F) {
	f.Add("des (0, 4, 3)\n(0, \"put !0\", 1)\n(0, \"put !1\", 2)\n(1, \"get !0\", 0)\n(2, \"get !1\", 0)\n")
	f.Add("\n\ndes (0, 1, 2)\n\n(0, a, 1)\n\n")
	f.Add("des (1, 3, 3)\n(1, i, 0)\n(0, \"push \\\"x, y\\\"\", 2)\n(2, \"a b\\\\c\", 1)\n")
	f.Add("des (0, 2, 2)\n(0, \"SEND (1, 2)\", 1)\n(1, RECV, 0)\n")
	f.Add("des (0, 1, 2)\n(0, \"a, 1)")
	f.Add("des (5, 0, 2)")
	stage, err := xstream.StageModel(2, "h0", "h1")
	if err != nil {
		f.Fatal(err)
	}
	fork, err := faust.ForkImpl(2, faust.ForkWaitBoth)
	if err != nil {
		f.Fatal(err)
	}
	for _, l := range []*lts.LTS{stage, fork} {
		f.Add(WriteString(l))
	}
	f.Fuzz(func(t *testing.T, text string) {
		// Read allocates every declared state; keep each execution
		// small (the bound itself is pinned by TestReadErrors).
		for _, line := range strings.Split(text, "\n") {
			if line = strings.TrimSpace(line); line != "" {
				if _, _, n, err := parseHeader(line); err == nil && n > 1<<16 {
					t.Skip("header declares more states than the fuzz budget")
				}
				break
			}
		}
		l, err := ReadString(text)
		if err != nil {
			return
		}
		out := WriteString(l)
		back, err := ReadString(out)
		if err != nil {
			t.Fatalf("written LTS does not read back: %v\n%s", err, out)
		}
		if back.NumStates() != l.NumStates() || back.Initial() != l.Initial() {
			t.Fatalf("read back %d states (initial %d), want %d (initial %d)", back.NumStates(), back.Initial(), l.NumStates(), l.Initial())
		}
		ea, eb := edgeSet(l), edgeSet(back)
		if len(ea) != len(eb) {
			t.Fatalf("read back %d edges, want %d", len(eb), len(ea))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("edge %d: read back %q, want %q", i, eb[i], ea[i])
			}
		}
		if again := WriteString(back); again != out {
			t.Fatalf("second write differs:\n%s\nvs\n%s", again, out)
		}
	})
}
