// Server observability: the per-server metrics registry (wired over the
// counters every layer already keeps — cache builds and hit rates, queue
// depth and panics, sweep journals, solver fallbacks, fault-point fires
// — plus the per-stage pipeline latency histograms fed by the span
// recorder), the /metrics + pprof debug handler, and the structured
// request log.
//
// The debug surface is deliberately a separate http.Handler: cmd/serve
// binds it to its own -debug-addr listener (off by default) so scraping
// and profiling never contend with — or get exposed on — the request
// port.

package serve

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"multival"
	"multival/internal/fault"
	"multival/internal/obs"
)

// faultPoints lists the injection points surfaced as fault metrics (the
// five seams of internal/fault wired through this package).
var faultPoints = []string{
	PointCacheBuild,
	PointQueueSubmit,
	PointQueueRun,
	PointExecute,
	PointSweepPoint,
}

// The catalog doubles as the runtime registry: registering at init lets
// fault.ValidateRules reject -fault/admin specs that name no compiled-in
// seam (and the faultpoint contract in internal/contracts keeps catalog
// and constants in sync).
func init() {
	for _, p := range faultPoints {
		fault.RegisterPoint(p)
	}
}

// initObservability builds the server's registry: owned counters
// (builds, sweep points, requests), sampled bridges over the existing
// layer counters, and the per-stage latency histograms. Called once
// from New.
func (s *Server) initObservability() {
	r := obs.NewRegistry()
	s.metrics = r

	// Artifact builds per cache layer — the same counters /v1/stats
	// reports, so the two surfaces can be cross-checked series by
	// series.
	buildHelp := "Artifact builds performed per cache layer (cache hits excluded)."
	s.builds = buildCounters{
		family:     r.Counter("multival_build_total", buildHelp, obs.Labels{"layer": "family"}),
		functional: r.Counter("multival_build_total", buildHelp, obs.Labels{"layer": "functional"}),
		perf:       r.Counter("multival_build_total", buildHelp, obs.Labels{"layer": "perf"}),
		measure:    r.Counter("multival_build_total", buildHelp, obs.Labels{"layer": "measure"}),
		check:      r.Counter("multival_build_total", buildHelp, obs.Labels{"layer": "check"}),
	}

	// Per-stage pipeline latency. The ladder reaches from sub-ms cache
	// assists to minutes-long cold solves.
	s.stageHist = make(map[string]*obs.Histogram, len(obs.Stages))
	for _, st := range obs.Stages {
		s.stageHist[st] = r.Histogram("multival_stage_duration_seconds",
			"Wall time attributed to each pipeline stage per request.",
			obs.Labels{"stage": st}, nil)
	}
	s.reqHist = map[string]*obs.Histogram{
		routeSolve: r.Histogram("multival_request_duration_seconds",
			"Full request latency per route.", obs.Labels{"route": routeSolve}, nil),
		routeSweep: r.Histogram("multival_request_duration_seconds",
			"Full request latency per route.", obs.Labels{"route": routeSweep}, nil),
	}

	// Sweep lifecycle counters.
	s.sweepStarted = r.Counter("multival_sweeps_total",
		"Sweep executions started (fresh and resumed passes).", nil)
	pointHelp := "Sweep grid points by outcome; resumed points also count as completed."
	s.sweepPoints = map[string]*obs.Counter{
		"completed": r.Counter("multival_sweep_points_total", pointHelp, obs.Labels{"outcome": "completed"}),
		"failed":    r.Counter("multival_sweep_points_total", pointHelp, obs.Labels{"outcome": "failed"}),
		"resumed":   r.Counter("multival_sweep_points_total", pointHelp, obs.Labels{"outcome": "resumed"}),
	}

	// Sampled bridges: the layers below keep their own counters; the
	// registry reads them at scrape time so there is exactly one source
	// of truth per number.
	caches := map[string]*Cache{"artifact": s.cache, "model": s.models}
	for cn, c := range caches {
		c := c
		lbl := obs.Labels{"cache": cn}
		r.CounterFunc("multival_cache_hits_total", "Cache lookups answered from a completed entry.", lbl,
			func() float64 { return float64(c.Stats().Hits) })
		r.CounterFunc("multival_cache_misses_total", "Cache lookups that ran the build function.", lbl,
			func() float64 { return float64(c.Stats().Misses) })
		r.CounterFunc("multival_cache_shared_total", "Cache lookups that joined an in-flight build (singleflight).", lbl,
			func() float64 { return float64(c.Stats().Shared) })
		r.CounterFunc("multival_cache_evictions_total", "Completed cache entries dropped by the LRU bound.", lbl,
			func() float64 { return float64(c.Stats().Evictions) })
		r.GaugeFunc("multival_cache_entries", "Completed cache entries resident right now.", lbl,
			func() float64 { return float64(c.Stats().Entries) })
	}

	q := s.queue
	r.GaugeFunc("multival_queue_depth", "Jobs queued but not yet running.", nil,
		func() float64 { return float64(q.Stats().Queued) })
	r.GaugeFunc("multival_queue_workers", "Request-executing worker goroutines.", nil,
		func() float64 { return float64(q.Stats().Workers) })
	r.GaugeFunc("multival_queue_job_ewma_ms", "Exponentially weighted average job duration (feeds Retry-After hints).", nil,
		func() float64 { return q.Stats().AvgJobMS })
	qc := map[string]func(QueueStats) int64{
		"multival_queue_executed_total": func(st QueueStats) int64 { return st.Executed },
		"multival_queue_rejected_total": func(st QueueStats) int64 { return st.Rejected },
		"multival_queue_shed_total":     func(st QueueStats) int64 { return st.Shed },
		"multival_queue_retries_total":  func(st QueueStats) int64 { return st.Retries },
		"multival_queue_skipped_total":  func(st QueueStats) int64 { return st.Skipped },
		"multival_queue_panics_total":   func(st QueueStats) int64 { return st.Panics },
	}
	qh := map[string]string{
		"multival_queue_executed_total": "Jobs executed to completion.",
		"multival_queue_rejected_total": "Submissions rejected at hard queue capacity (429 queue_full).",
		"multival_queue_shed_total":     "Submissions shed at the high watermark (429 queue_busy).",
		"multival_queue_retries_total":  "Backed-off resubmissions performed by the shared retry policy.",
		"multival_queue_skipped_total":  "Queued jobs whose context was done before a worker reached them.",
		"multival_queue_panics_total":   "Job executions that panicked (recovered by the worker).",
	}
	for name, get := range qc {
		get := get
		r.CounterFunc(name, qh[name], nil, func() float64 { return float64(get(q.Stats())) })
	}

	r.GaugeFunc("multival_sweeps_tracked", "Resumable sweep journals resident in the bounded registry.", nil,
		func() float64 { return float64(s.sweeps.size()) })

	r.CounterFunc("multival_solver_fallbacks_total",
		"Stationary GS solves that stagnated into damped Jacobi (process-wide).",
		obs.Labels{"kind": "gs_to_jacobi"},
		func() float64 { return float64(multival.SolverFallbackStats().GSToJacobi) })
	r.CounterFunc("multival_solver_fallbacks_total",
		"BiCGSTAB solves that broke down into damped Jacobi (process-wide).",
		obs.Labels{"kind": "bicgstab_to_jacobi"},
		func() float64 { return float64(multival.SolverFallbackStats().BiCGSTABToJacobi) })

	// Fault-point fires: zero while no plan is armed; during a chaos
	// drill the scrape shows which seams actually fired.
	for _, pt := range faultPoints {
		pt := pt
		r.CounterFunc("multival_fault_hits_total",
			"Executions that passed a fault point (armed or not).",
			obs.Labels{"point": pt}, func() float64 { return float64(faultStat(pt).Hits) })
		for kind, get := range map[string]func(fault.PointStats) int64{
			"error": func(ps fault.PointStats) int64 { return ps.Errors },
			"panic": func(ps fault.PointStats) int64 { return ps.Panics },
			"delay": func(ps fault.PointStats) int64 { return ps.Delays },
		} {
			get := get
			r.CounterFunc("multival_fault_fires_total",
				"Faults fired per point and kind under the armed chaos schedule.",
				obs.Labels{"point": pt, "kind": kind},
				func() float64 { return float64(get(faultStat(pt))) })
		}
	}

	r.GaugeFunc("multival_uptime_seconds", "Seconds since the server started.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	bi := obs.ReadBuildInfo()
	r.Gauge("multival_build_info", "Build identity as labels; value is always 1.",
		obs.Labels{"version": bi.Version, "go_version": bi.GoVersion}).Set(1)
}

// faultStat samples one point's counters from the armed plan (zeroes
// when no plan is armed).
func faultStat(point string) fault.PointStats {
	p := fault.Active()
	if p == nil {
		return fault.PointStats{}
	}
	return p.Stats()[point]
}

// Routes of the request log and the per-route metrics.
const (
	routeSolve  = "solve"
	routeSweep  = "sweep"
	routeModels = "models"
)

// traceIDFrom returns the request's trace ID: an inbound X-Request-Id
// when the caller supplied one (truncated to a sane length — the ID is
// echoed into responses and logs), a fresh ID otherwise.
func traceIDFrom(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	return obs.NewTraceID()
}

// durationMS renders a duration as wire milliseconds (microsecond
// precision).
func durationMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}

// Metrics returns the server's registry (scraped by the debug listener,
// readable in-process by tests and embedding binaries).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// DebugHandler returns the debug surface: the Prometheus /metrics
// exposition and the net/http/pprof profiling endpoints. It is NOT
// registered on the request mux — bind it to a separate listener
// (cmd/serve -debug-addr) so profiling never shares the request port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", s.metrics.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// observeOutcome folds one finished request into the per-route metrics:
// the latency histogram and the requests counter labeled by outcome
// code ("ok" or the wire error code).
func (s *Server) observeOutcome(route string, err error, elapsed time.Duration) (code string, status int) {
	code, status = "ok", http.StatusOK
	if err != nil {
		code, status = ErrorCode(err)
	}
	s.metrics.Counter("multival_requests_total",
		"Requests by route and outcome code.",
		obs.Labels{"route": route, "code": code}).Inc()
	if h, ok := s.reqHist[route]; ok {
		h.Observe(elapsed.Seconds())
	}
	return code, status
}

// logRequest emits the one structured log line per request: trace ID,
// route, outcome, latency, and the request's artifact identities. A nil
// logger (the default outside cmd/serve) disables logging entirely.
func (s *Server) logRequest(traceID, route string, err error, elapsed time.Duration, attrs ...slog.Attr) {
	code, status := s.observeOutcome(route, err, elapsed)
	if s.log == nil {
		return
	}
	base := []slog.Attr{
		slog.String("trace_id", traceID),
		slog.String("route", route),
		slog.String("code", code),
		slog.Int("status", status),
		slog.Float64("duration_ms", durationMS(elapsed)),
	}
	if err != nil {
		base = append(base, slog.String("error", err.Error()))
	}
	s.log.LogAttrs(nil, slog.LevelInfo, "request", append(base, attrs...)...)
}

// recordStages feeds a finished recorder's spans into the per-stage
// histograms and renders the wire timing block (milliseconds, pipeline
// stage order). Returns nil for span-less requests (fully cache-served).
func (s *Server) recordStages(rec *obs.SpanRecorder) []StageTiming {
	spans := rec.Finish()
	if len(spans) == 0 {
		return nil
	}
	out := make([]StageTiming, 0, len(spans))
	for _, sp := range spans {
		if h, ok := s.stageHist[sp.Stage]; ok {
			h.Observe(sp.Duration.Seconds())
		} else {
			// Unknown stage (a future engine stage): register on demand
			// so it surfaces instead of vanishing.
			s.metrics.Histogram("multival_stage_duration_seconds",
				"Wall time attributed to each pipeline stage per request.",
				obs.Labels{"stage": sp.Stage}, nil).Observe(sp.Duration.Seconds())
		}
		out = append(out, StageTiming{Stage: sp.Stage, MS: durationMS(sp.Duration)})
	}
	return out
}
