package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"multival/internal/aut"
	"multival/internal/lts"
	"multival/internal/mcl"
)

// bufAut is the one-place buffer in canonical .aut form (the golden
// serialization of the root CLI tests).
const bufAut = `des (0, 4, 3)
(0, "put !0", 1)
(0, "put !1", 2)
(1, "get !0", 0)
(2, "get !1", 0)
`

// chainAut builds a ring of n states with extra random hops: big enough
// that a cold solve visibly costs work, irregular enough that lumping
// does not collapse it.
func chainAut(n int) string {
	rng := rand.New(rand.NewSource(11))
	l := lts.New("chain")
	l.AddStates(n)
	for i := 0; i < n; i++ {
		l.AddTransition(lts.State(i), "go", lts.State((i+1)%n))
		if j := rng.Intn(n); j != i {
			l.AddTransition(lts.State(i), "hop", lts.State(j))
		}
	}
	return aut.WriteString(l)
}

// newTestServer starts a service with cfg defaults suitable for tests.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON posts v and returns the status code and body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, v); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func decodeResult(t *testing.T, body []byte) *Result {
	t.Helper()
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding result: %v\nbody: %s", err, body)
	}
	return &res
}

func decodeError(t *testing.T, body []byte) Error {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("decoding error body: %v\nbody: %s", err, body)
	}
	return eb.Error
}

func serverStats(t *testing.T, base string) StatsBody {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeSolveEndToEnd: upload a model, solve it by content digest,
// then repeat the request and watch it come from the cache.
func TestServeSolveEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueWorkers: 2, QueueDepth: 8})

	// Upload: the content digest comes back with the model's size.
	resp, err := http.Post(ts.URL+"/v1/models", "text/plain", strings.NewReader(bufAut))
	if err != nil {
		t.Fatal(err)
	}
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.States != 3 || info.Transitions != 4 || info.Hash == "" {
		t.Fatalf("model info = %+v", info)
	}

	req := SolveRequest{
		ModelHash:            info.Hash,
		Rates:                map[string]float64{"put": 1, "get": 2},
		Markers:              []string{"get"},
		IncludeProbabilities: true,
	}
	status, body := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("solve status %d: %s", status, body)
	}
	res := decodeResult(t, body)
	if res.Kind != "steady" || res.CTMCStates == 0 || len(res.Throughputs) == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.ModelHash != info.Hash {
		t.Fatalf("result model hash %q; want %q", res.ModelHash, info.Hash)
	}
	if len(res.Probabilities) == 0 {
		t.Fatal("probabilities requested but absent")
	}
	total := 0.0
	for _, sp := range res.Probabilities {
		total += sp.P
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("probabilities sum to %v", total)
	}
	if res.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}

	// Second identical request: answered from the cache.
	status, body = postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("second solve status %d: %s", status, body)
	}
	if res := decodeResult(t, body); !res.CacheHit {
		t.Fatal("second identical solve missed the cache")
	}
	st := serverStats(t, ts.URL)
	if st.Artifacts.Extractions != 1 || st.Artifacts.PerfModels != 1 {
		t.Fatalf("artifacts = %+v; want one extraction over one perf model", st.Artifacts)
	}

	// An inline solve of the same behaviour (different transition order)
	// content-addresses to the same artifacts: still one extraction.
	shuffled := "des (0, 4, 3)\n(2, \"get !1\", 0)\n(0, \"put !1\", 2)\n(1, \"get !0\", 0)\n(0, \"put !0\", 1)\n"
	inline := req
	inline.ModelHash = ""
	inline.Model = shuffled
	status, body = postJSON(t, ts.URL+"/v1/solve", inline)
	if status != http.StatusOK {
		t.Fatalf("inline solve status %d: %s", status, body)
	}
	if res := decodeResult(t, body); !res.CacheHit || res.ModelHash != info.Hash {
		t.Fatalf("behaviourally identical inline model missed the cache: %+v", res)
	}
	if st := serverStats(t, ts.URL); st.Artifacts.Extractions != 1 {
		t.Fatalf("extractions = %d after identical inline solve; want 1", st.Artifacts.Extractions)
	}
}

// TestServeConcurrentIdenticalCollapse: N concurrent identical solve
// requests share one pipeline execution — the artifact counters prove a
// single CTMC extraction happened underneath.
func TestServeConcurrentIdenticalCollapse(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueWorkers: 4, QueueDepth: 16})
	req := SolveRequest{
		Model:   chainAut(2000),
		Rates:   map[string]float64{"go": 1, "hop": 0.5},
		Markers: []string{"go"},
	}
	const n = 4
	var wg sync.WaitGroup
	statuses := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], bodies[i] = postJSON(t, ts.URL+"/v1/solve", req)
		}(i)
	}
	wg.Wait()
	var through float64
	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], bodies[i])
		}
		res := decodeResult(t, bodies[i])
		tp := res.Throughputs["go"]
		if tp <= 0 {
			t.Fatalf("request %d: throughputs %v", i, res.Throughputs)
		}
		if i == 0 {
			through = tp
		} else if tp != through {
			t.Fatalf("request %d: throughput %v differs from %v (not the shared artifact?)", i, tp, through)
		}
	}
	st := serverStats(t, ts.URL)
	if st.Artifacts.Extractions != 1 || st.Artifacts.MaximalProgress != 1 || st.Artifacts.PerfModels != 1 {
		t.Fatalf("artifacts = %+v; want exactly one extraction/maximal-progress over one perf model", st.Artifacts)
	}
	if st.Queue.Executed == 0 {
		t.Fatalf("queue stats = %+v; expected executed requests", st.Queue)
	}
}

// TestServeDeadlineReturnsStructuredError: a request whose deadline
// cannot be met comes back as the structured deadline error, not a hang
// and not a 200.
func TestServeDeadlineReturnsStructuredError(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4})
	lump := false
	req := SolveRequest{
		Model:      chainAut(30_000),
		Rates:      map[string]float64{"go": 1, "hop": 0.5},
		Lump:       &lump,
		DeadlineMS: 1,
	}
	status, body := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s; want 504", status, body)
	}
	if e := decodeError(t, body); e.Code != "deadline_exceeded" {
		t.Fatalf("error = %+v; want code deadline_exceeded", e)
	}
}

// TestServeMaxDeadlineCap: deadline_ms is capped by the server maximum.
func TestServeMaxDeadlineCap(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4, MaxDeadline: time.Millisecond})
	req := SolveRequest{
		Model:      chainAut(30_000),
		Rates:      map[string]float64{"go": 1, "hop": 0.5},
		DeadlineMS: 3_600_000, // an hour, capped to 1ms
	}
	status, body := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s; want 504", status, body)
	}
}

// TestServeTransientAndMeanTime exercises the transient measure and the
// first-passage query through the wire.
func TestServeTransientAndMeanTime(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4})
	at := 0.5
	req := SolveRequest{
		Model:      bufAut,
		Rates:      map[string]float64{"put": 1, "get": 2},
		Markers:    []string{"get"},
		At:         &at,
		MeanTimeTo: []string{"get !0"},
	}
	status, body := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	res := decodeResult(t, body)
	if res.Kind != "transient" || res.At != 0.5 {
		t.Fatalf("result = %+v; want transient at 0.5", res)
	}
	if v, ok := res.MeanTimes["get !0"]; !ok || v <= 0 {
		t.Fatalf("mean_times = %v; want positive get !0", res.MeanTimes)
	}
}

// TestServeErrors: request-shape and model-reference failures map to
// structured codes.
func TestServeErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4})
	for _, tc := range []struct {
		name   string
		req    SolveRequest
		status int
		code   string
	}{
		{"unknown hash", SolveRequest{ModelHash: strings.Repeat("0", 64), Rates: map[string]float64{"a": 1}}, http.StatusNotFound, "unknown_model"},
		{"no rates", SolveRequest{Model: bufAut}, http.StatusBadRequest, "bad_request"},
		{"no model", SolveRequest{Rates: map[string]float64{"a": 1}}, http.StatusBadRequest, "bad_request"},
		{"both model and hash", SolveRequest{Model: bufAut, ModelHash: "x", Rates: map[string]float64{"a": 1}}, http.StatusBadRequest, "bad_request"},
		{"bad relation", SolveRequest{Model: bufAut, Minimize: "nope", Rates: map[string]float64{"put": 1}}, http.StatusBadRequest, "bad_request"},
		{"bad gate", SolveRequest{Model: bufAut, Rates: map[string]float64{"typo": 1}}, http.StatusInternalServerError, "internal"},
		{"bad model text", SolveRequest{Model: "not aut", Rates: map[string]float64{"a": 1}}, http.StatusBadRequest, "bad_request"},
	} {
		status, body := postJSON(t, ts.URL+"/v1/solve", tc.req)
		if status != tc.status {
			t.Errorf("%s: status %d: %s; want %d", tc.name, status, body, tc.status)
			continue
		}
		if e := decodeError(t, body); e.Code != tc.code {
			t.Errorf("%s: code %q; want %q", tc.name, e.Code, tc.code)
		}
	}

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
}

// TestServeDeepQueryRejected: a property query nested past mcl's bound is
// a 400, not a crash. Under a 64 MB stack cap, 400,000 nested negations
// used to abort the whole process with a fatal stack overflow, which no
// recover can catch; afterwards the server still answers /healthz.
func TestServeDeepQueryRejected(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	_, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4})
	for _, depth := range []int{mcl.MaxNesting + 1, 400_000} {
		req := SolveRequest{
			Model: bufAut,
			Rates: map[string]float64{"put": 1, "get": 2},
			Check: []string{strings.Repeat("not ", depth-1) + "true"},
		}
		status, body := postJSON(t, ts.URL+"/v1/solve", req)
		if status != http.StatusBadRequest {
			t.Fatalf("query nested %d deep: status %d: %.200s; want 400", depth, status, body)
		}
		if e := decodeError(t, body); e.Code != "bad_request" || !strings.Contains(e.Message, "nested deeper") {
			t.Fatalf("query nested %d deep: error %+v", depth, e)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after deep queries: %d", resp.StatusCode)
	}
}

// TestServeSSEProgressStream: ?stream=1 yields an event stream ending in
// a result event carrying the same wire Result.
func TestServeSSEProgressStream(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4})
	var buf bytes.Buffer
	req := SolveRequest{
		Model:   chainAut(5000),
		Rates:   map[string]float64{"go": 1, "hop": 0.5},
		Markers: []string{"go"},
	}
	if err := EncodeJSON(&buf, req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve?stream=1", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	i := strings.Index(text, "event: result\ndata: ")
	if i < 0 {
		t.Fatalf("no result event in stream:\n%s", text)
	}
	line := text[i+len("event: result\ndata: "):]
	line = line[:strings.Index(line, "\n")]
	res := decodeResult(t, []byte(line))
	if res.Kind != "steady" || res.Throughputs["go"] <= 0 {
		t.Fatalf("streamed result = %+v", res)
	}
}

// TestServeHealthAndStats: liveness and the stats shape.
func TestServeHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "true") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	st := serverStats(t, ts.URL)
	if st.Cache.Capacity == 0 || st.Queue.Workers == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestServeCacheEviction: a one-entry cache cannot hold model + perf +
// measures at once, so repeated solves of rotating models keep missing
// and the eviction counter climbs; the service still answers correctly.
func TestServeCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4, CacheEntries: 1})
	for i := 0; i < 3; i++ {
		req := SolveRequest{
			Model:   bufAut,
			Rates:   map[string]float64{"put": 1, "get": 2},
			Markers: []string{"get"},
		}
		status, body := postJSON(t, ts.URL+"/v1/solve", req)
		if status != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", i, status, body)
		}
	}
	st := serverStats(t, ts.URL)
	if st.Cache.Evictions == 0 {
		t.Fatalf("cache stats = %+v; want evictions under a 1-entry cache", st.Cache)
	}
}

// TestServePanicStructured500 is the end-to-end panic-hardening test: a
// request whose execution panics must receive a structured 500 (not a
// hung connection), the worker pool must survive (the next request is
// served by the same single worker), the artifact key must not be wedged
// (the retry builds fresh), and the panic must show up in the stats.
func TestServePanicStructured500(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4})

	executeHook = func(*SolveRequest) { panic("injected failure") }
	defer func() { executeHook = nil }()

	req := SolveRequest{Model: bufAut, Rates: map[string]float64{"put": 1, "get": 2}, Markers: []string{"get"}}
	status, body := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, body %s; want 500", status, body)
	}
	if e := decodeError(t, body); e.Code != "internal" || !strings.Contains(e.Message, "panicked") {
		t.Fatalf("error = %+v; want code internal mentioning the panic", e)
	}

	// Same request without the injected panic: the single worker must
	// still be alive and the cache key retryable.
	executeHook = nil
	status, body = postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("retry status = %d, body %s; want 200 from the surviving worker", status, body)
	}
	if res := decodeResult(t, body); len(res.Throughputs) == 0 {
		t.Fatalf("retry result %+v; want throughputs", res)
	}

	if st := s.Stats(); st.Queue.Panics != 1 {
		t.Fatalf("queue stats %+v; want exactly one recorded panic", st.Queue)
	}
}

// TestStatsSurfacesSolverFallbacks: GET /v1/stats carries the
// process-wide solver fallback counters on the wire, so a chain family
// that starts breaking the Krylov kernel is observable.
func TestStatsSurfacesSolverFallbacks(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueWorkers: 1, QueueDepth: 4})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	solver, ok := raw["solver"]
	if !ok {
		t.Fatalf("stats body has no solver section: %v", raw)
	}
	var counters map[string]int64
	if err := json.Unmarshal(solver, &counters); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"gs_to_jacobi", "bicgstab_to_jacobi"} {
		if _, ok := counters[key]; !ok {
			t.Fatalf("solver section missing %q: %s", key, solver)
		}
	}
}
