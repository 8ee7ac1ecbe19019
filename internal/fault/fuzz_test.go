package fault

import (
	"strings"
	"testing"
)

// FuzzParseSpec feeds arbitrary fault specifications — the text of the
// serve command's fault flag and of POST /v1/fault requests — to
// ParseSpec. It must never panic, and every rejection must carry the
// package prefix.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"p:error:err=test_sentinel:times=1",
		"a.b:panic:after=2:times=1; c.d:latency=5ms:prob=0.25 ;e:error",
		"", " ; ; ", "pointonly", "p:explode", "p:latency=-3ms", "p:latency=nonsense",
		"p:error:prob=1.5", "p:error:after=-1", "p:error:times=x",
		"p:error:err=never_registered_name", "p:error:oddity=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if _, err := ParseSpec(spec); err != nil && !strings.HasPrefix(err.Error(), "fault:") {
			t.Fatalf("ParseSpec(%q) error %q lacks the package prefix", spec, err)
		}
	})
}
