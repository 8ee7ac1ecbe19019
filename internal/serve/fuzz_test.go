package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"multival/internal/fault"
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

// FuzzSweepRequest feeds arbitrary bodies through the validation every
// POST /v1/sweeps request passes before its first point runs: decoding
// as the handler decodes, then resolveSweep (resume lookup, family
// lookup, grid expansion, per-point instance builds). Each input must be
// accepted or rejected with a 4xx status, never a panic or a 5xx, and
// nothing may be built or solved along the way.
func FuzzSweepRequest(f *testing.F) {
	for _, req := range []SweepRequest{
		{Family: "fame", Params: map[string]any{"nodes": 4, "erlang_k": 2}, Grid: map[string][]any{"tbase": {1.0, 2.0}, "at": {0.5}}},
		{Family: "faust", Grid: map[string][]any{"variant": {"wait-both", "unsafe"}, "rate_b": {1.0, 2.0}}},
		{Family: "xstream", Concurrency: 1, Grid: map[string][]any{"mu": {1.0, 2.0}}, Check: []string{"deadlock"}},
		{Family: "chp", Grid: map[string][]any{"ports": {2}}, MaxAttempts: 99, DeadlineMS: -1},
		{Family: "lotos", Grid: map[string][]any{"nope": {true, nil, "x"}}},
		{Family: "nosuch", Grid: map[string][]any{"a": {1}}},
		{Family: "fame"},
		{Resume: "sw-nonesuch"},
		{Resume: "sw-nonesuch", Family: "fame", Grid: map[string][]any{"tbase": {1.0}}},
		{Family: "fame", Params: map[string]any{"nodes": "four"}, Grid: map[string][]any{"tbase": {-1.0, 1e308}}},
	} {
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("{"))
	f.Add([]byte(`{"family": "fame", "grid": {"tbase": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], "at": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], "nodes": [2, 3, 4, 5, 6, 7, 8, 9]}}`))
	f.Add([]byte(`{"family": "xstream", "grid": {"mu": []}, "unknown": true}`))
	s := New(Config{QueueWorkers: 1, QueueDepth: 1})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SweepRequest
		if err := DecodeJSON(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxModelBytes), &req); err != nil {
			return // the handler answers 400 for every decoding error
		}
		if _, _, _, err := s.resolveSweep(&req); err != nil {
			if _, status := ErrorCode(err); status < 400 || status >= 500 {
				t.Fatalf("body %q: status %d for %v", body, status, err)
			}
		}
		if st := s.Stats(); st.Queue.Executed != 0 || st.Builds != (BuildStats{}) {
			t.Fatalf("body %q: validation built something: queue %+v, builds %+v", body, st.Queue, st.Builds)
		}
	})
}

// FuzzFaultRequest posts arbitrary bodies to /v1/fault through the
// server's own handler. Each must be accepted (the schedule is armed,
// then disarmed again) or rejected with a 4xx status, never a panic or a
// 5xx.
func FuzzFaultRequest(f *testing.F) {
	for _, req := range []FaultRequest{
		{Spec: PointExecute + ":error:times=1", Seed: 7},
		{Spec: PointSweepPoint + ":latency=5ms:prob=0.25; " + PointExecute + ":panic:after=2:times=1"},
		{Spec: "p:error:err=never_registered_name"},
		{Spec: "unknown.point:error"},
		{Spec: ""},
		{Spec: " ; ; ", Seed: -1},
		{Spec: "p:latency=-3ms"},
	} {
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("{"))
	f.Add([]byte(`{"spec": 7}`))
	f.Add([]byte(`{"spec": "x:error", "seed": 1e99}`))
	s := New(Config{QueueWorkers: 1, QueueDepth: 1, EnableFaultInjection: true})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		defer fault.Deactivate()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/fault", bytes.NewReader(body)))
		if w.Code >= 500 || (w.Code >= 300 && w.Code < 400) {
			t.Fatalf("body %q: status %d: %s", body, w.Code, w.Body)
		}
	})
}
