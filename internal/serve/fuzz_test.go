package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzDecodeSolveRequest feeds arbitrary bodies through the validation
// every /v1/solve request passes before it is queued: decoding and
// sanity checks (decodeSolveRequest), then parsing inline models and
// resolving model digests (resolveModels). Each input must be accepted
// or rejected with a 4xx status, never a panic or a 5xx, and nothing
// may be solved along the way.
func FuzzDecodeSolveRequest(f *testing.F) {
	at := -1.0
	for _, req := range []SolveRequest{
		{Model: bufAut, Rates: map[string]float64{"put": 1, "get": 2}, Markers: []string{"get"}},
		{Model: bufAut, Minimize: "branching", Hide: []string{"put"}, Rates: map[string]float64{"get": 2}, Check: []string{"deadlock", "<get> true"}},
		{Models: []string{bufAut, chainAut(6)}, Sync: []string{"get"}, Rates: map[string]float64{"go": 1, "hop": 0.5}},
		{ModelHash: strings.Repeat("0", 64), Rates: map[string]float64{"a": 1}},
		{ModelHashes: []string{"x", "y"}, Rates: map[string]float64{"a": 1}},
		{Model: bufAut},
		{Rates: map[string]float64{"a": 1}},
		{Model: bufAut, ModelHash: "x", Rates: map[string]float64{"a": 1}},
		{Model: bufAut, Minimize: "nope", Rates: map[string]float64{"put": 1}},
		{Model: "not aut", Rates: map[string]float64{"a": 1}},
		{Model: bufAut, At: &at, Rates: map[string]float64{"put": 1}},
		{Model: bufAut, MeanTimeTo: []string{"get !0"}, Bounds: []string{"get"}, Rates: map[string]float64{"put": 1, "get": 1}},
	} {
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("{"))
	f.Add([]byte(`{"model": "des (0, 0, 4194304)\n", "rates": {"a": 1}}`))
	f.Add([]byte(`{"rates": {"a": 1}, "unknown": true}`))
	s := New(Config{QueueWorkers: 1, QueueDepth: 1})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		req, err := decodeSolveRequest(r)
		if err == nil {
			_, _, err = s.resolveModels(req)
		}
		if err != nil {
			if _, status := ErrorCode(err); status < 400 || status >= 500 {
				t.Fatalf("body %q: status %d for %v", body, status, err)
			}
		}
		if st := s.Stats(); st.Queue.Executed != 0 || st.Builds != (BuildStats{}) {
			t.Fatalf("body %q: validation solved something: queue %+v, builds %+v", body, st.Queue, st.Builds)
		}
	})
}
