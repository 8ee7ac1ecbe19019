package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"multival/internal/serve"
)

// server is an in-process serve.Server listening on loopback, plus the
// client that drives it.
//
// The server has the default configuration except for a 64-deep queue,
// cmd/serve's default: at the default depth of one, two closed-loop
// clients collide on admission and one of them is refused with a 429.
type server struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	done   chan error
	client *http.Client
}

// startServer starts a fresh server; conns bounds the client's
// connections (one per client goroutine).
func startServer(conns int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  serve.New(serve.Config{QueueDepth: 64}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		}},
	}
	s.http = &http.Server{Handler: s.srv}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener and its connections, waits for Serve to
// return and drains the server's queue. Every request has completed by
// then: the clients are closed loops.
func (s *server) close() {
	s.client.CloseIdleConnections()
	_ = s.http.Close() // the error is the listener's close, irrelevant on teardown
	<-s.done
	s.srv.Close()
}

// post sends one request and reads the whole response; the latency runs
// from the send to the last byte. Any status but 200 is an error, so a 429
// from admission control counts as a failed request (the clients never
// queue more than the watermark admits, so none is expected).
func (s *server) post(ctx context.Context, path string, body []byte) (b []byte, t0, t1 time.Time, err error) {
	t0 = time.Now()
	b, err = s.postOnce(ctx, path, body)
	return b, t0, time.Now(), err
}

func (s *server) postOnce(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return nil, err
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func (s *server) stats(ctx context.Context) (serve.StatsBody, error) {
	var st serve.StatsBody
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// exchange is one timed request: its body, response and timing.
type exchange struct {
	kind   int // index into the workload's request set
	body   []byte
	t0, t1 time.Time
	err    error
}

func (e exchange) latMS() float64 { return float64(e.t1.Sub(e.t0)) / 1e6 }

// serveSample is one pass's serve-layer figures for the traced run.
type serveSample struct {
	requests   int
	overheadMS []float64 // client latency minus the server's duration_ms
	stageMS    map[string]float64
	before     serve.StatsBody
	after      serve.StatsBody
}

// reply is the subset of a solve or sweep response the checks read.
type reply struct {
	// solve
	DurationMS float64             `json:"duration_ms"`
	CacheHit   bool                `json:"cache_hit"`
	Stages     []serve.StageTiming `json:"stages"`
	// sweep
	GridPoints int                `json:"grid_points"`
	Completed  int                `json:"completed"`
	ElapsedMS  float64            `json:"elapsed_ms"`
	Results    []serve.SweepPoint `json:"results"`
}

// sample fills a serveSample's per-request figures from the exchanges.
func sampleOf(xs []exchange, before, after serve.StatsBody) *serveSample {
	s := &serveSample{requests: len(xs), stageMS: map[string]float64{}, before: before, after: after}
	for _, x := range xs {
		var r reply
		if x.err != nil || json.Unmarshal(x.body, &r) != nil {
			continue
		}
		server := r.DurationMS
		if r.GridPoints > 0 {
			server = r.ElapsedMS
		}
		s.overheadMS = append(s.overheadMS, x.latMS()-server)
		for _, st := range r.Stages {
			s.stageMS[st.Stage] += st.MS
		}
		for _, p := range r.Results {
			if p.Result != nil {
				for _, st := range p.Result.Stages {
					s.stageMS[st.Stage] += st.MS
				}
			}
		}
	}
	return s
}

// masked decodes a response and drops the fields that legitimately differ
// between two answers to the same request: telemetry (trace_id,
// duration_ms, stages, cache_hit) and a sweep's identity and sharing
// counters. The result re-encodes canonically (sorted keys).
func masked(body []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	if top, ok := v.(map[string]any); ok {
		for _, k := range []string{"sweep_id", "elapsed_ms", "builds", "cache_hits", "retries"} {
			delete(top, k)
		}
	}
	var strip func(any)
	strip = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for _, k := range []string{"trace_id", "duration_ms", "stages", "cache_hit"} {
				delete(x, k)
			}
			for _, c := range x {
				strip(c)
			}
		case []any:
			for _, c := range x {
				strip(c)
			}
		}
	}
	strip(v)
	return json.Marshal(v)
}

func serveMetrics(rep *report, traced []passResult) {
	n := float64(len(traced))
	var requests, executed, rejected, hits, misses, shared, evictions float64
	var avgJob float64
	var builds serve.BuildStats
	var overhead []float64
	stages := map[string]float64{}
	for _, p := range traced {
		s := p.serve
		if s == nil {
			continue
		}
		requests += float64(s.requests)
		overhead = append(overhead, s.overheadMS...)
		for k, v := range s.stageMS {
			stages[k] += v
		}
		q0, q1 := s.before.Queue, s.after.Queue
		executed += float64(q1.Executed - q0.Executed)
		rejected += float64(q1.Rejected - q0.Rejected)
		avgJob += q1.AvgJobMS
		c0, c1 := s.before.Cache, s.after.Cache
		hits += float64(c1.Hits - c0.Hits)
		misses += float64(c1.Misses - c0.Misses)
		shared += float64(c1.Shared - c0.Shared)
		evictions += float64(c1.Evictions - c0.Evictions)
		d := s.after.Builds.Sub(s.before.Builds)
		builds.Family += d.Family
		builds.Functional += d.Functional
		builds.Perf += d.Perf
		builds.Measure += d.Measure
		builds.Check += d.Check
	}
	lookups := hits + misses + shared
	ratio := 0.0
	if lookups > 0 {
		ratio = hits / lookups
	}
	rep.set("serve.requests", requests/n, "count")
	rep.set("serve.overhead_ms", mean(overhead), "ms")
	rep.set("serve.queue.executed", executed/n, "count")
	rep.set("serve.queue.rejected", rejected/n, "count")
	rep.set("serve.queue.avg_job_ms", avgJob/n, "ms")
	rep.set("serve.cache.hits", hits/n, "count")
	rep.set("serve.cache.misses", misses/n, "count")
	rep.set("serve.cache.shared", shared/n, "count")
	rep.set("serve.cache.evictions", evictions/n, "count")
	rep.set("serve.cache.lookups", lookups/n, "count")
	rep.set("serve.cache.hit_ratio", ratio, "ratio")
	rep.set("serve.builds.family", float64(builds.Family)/n, "count")
	rep.set("serve.builds.functional", float64(builds.Functional)/n, "count")
	rep.set("serve.builds.perf", float64(builds.Perf)/n, "count")
	rep.set("serve.builds.measure", float64(builds.Measure)/n, "count")
	rep.set("serve.builds.check", float64(builds.Check)/n, "count")
	// Server-reported stage attribution (known to misplace lump time
	// under decorate); the client-side layer spans are authoritative.
	for _, st := range []string{"compose", "minimize", "decorate", "lump", "solve", "check"} {
		rep.set("serve.stage."+st+"_ms", stages[st]/n, "ms")
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
