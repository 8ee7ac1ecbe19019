package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// maskedSolve posts req and returns the response re-encoded with the
// request-specific telemetry (trace_id, duration_ms, stages, cache_hit)
// removed, so two results compare byte for byte.
func maskedSolve(t *testing.T, url string, req SolveRequest) []byte {
	t.Helper()
	status, body := postJSON(t, url+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"trace_id", "duration_ms", "stages", "cache_hit"} {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServeCacheHitIndependentOfWorkers: the measure cache key leaves the
// worker count out, which is only sound because workers never change a
// result. A workers:0 solve must therefore read the same bytes from a
// fresh server and from one whose cache a workers:4 request filled.
func TestServeCacheHitIndependentOfWorkers(t *testing.T) {
	lump := false
	req := func(workers int) SolveRequest {
		return SolveRequest{
			Model:                chainAut(400),
			Rates:                map[string]float64{"go": 1, "hop": 0.7},
			Markers:              []string{"go"},
			Lump:                 &lump,
			IncludeProbabilities: true,
			Workers:              workers,
		}
	}
	_, fresh := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4})
	want := maskedSolve(t, fresh.URL, req(0))

	_, warmed := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4})
	maskedSolve(t, warmed.URL, req(4))
	got := maskedSolve(t, warmed.URL, req(0))
	if !bytes.Equal(got, want) {
		t.Fatalf("workers:0 result after a workers:4 request differs from a fresh server's:\n got %.300s\nwant %.300s", got, want)
	}
}
