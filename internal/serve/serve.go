// Package serve is the long-lived analysis service over the multival
// Engine: an HTTP/JSON front end that executes pipeline requests
// (compose/hide/minimize/decorate/lump/solve, mirroring the root
// Pipeline builder) through a bounded worker queue with per-request
// deadlines and cancellation on client disconnect, on top of a
// content-addressed artifact cache — models, performance models with
// their extracted CTMCs, and solved measure sets are keyed by canonical
// digests (lts.Frozen.Hash over CSR form, SHA-256 over request specs)
// with singleflight deduplication, so N concurrent identical requests
// share one computation and repeated query workloads against few
// distinct models turn into O(1) lookups.
//
// Endpoints:
//
//	POST /v1/models  — upload a model (.aut text); returns its content
//	                   digest for hash-addressed requests.
//	POST /v1/solve   — run one pipeline request (SolveRequest JSON);
//	                   with Accept: text/event-stream or ?stream=1 the
//	                   response streams progress events before the
//	                   result (SSE).
//	POST /v1/sweeps  — run a parameter sweep; resumable by sweep ID.
//	GET  /v1/sweeps/{id} — progress / partial rollup of a tracked sweep.
//	GET  /v1/stats   — queue, cache, artifact and fault counters.
//	GET  /healthz    — liveness.
//	/v1/fault        — chaos-schedule admin (only with EnableFaultInjection).
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"multival"
	"multival/internal/aut"
	"multival/internal/fault"
	"multival/internal/mcl"
	"multival/internal/obs"
)

// PointExecute is the fault point at the head of every queued pipeline
// execution (after model resolution is admitted to a worker, before any
// cache work).
const PointExecute = "serve.execute"

// Config sizes the service. The zero value is usable: a default engine,
// one worker per core pair, a 64-entry cache, no deadlines.
type Config struct {
	// Engine is the shared base engine; per-request engines are derived
	// from it with Engine.With (workers, scheduler, progress) so requests
	// never mutate the shared options. Nil selects a default engine.
	Engine *multival.Engine
	// QueueWorkers is the number of request-executing workers (floored
	// to 1); QueueDepth bounds the number of queued-but-not-running
	// requests (floored to 1; beyond it requests are rejected with 429).
	QueueWorkers int
	QueueDepth   int
	// CacheEntries bounds the derived-artifact cache (completed entries;
	// < 1 selects 64). ModelEntries separately bounds the store of
	// uploaded models (< 1 selects 64): models are the roots every other
	// artifact derives from, so derived-artifact churn must not evict
	// them out from under hash-addressed clients.
	CacheEntries int
	ModelEntries int
	// DefaultDeadline bounds every request that does not set its own
	// deadline_ms; zero means no default bound. MaxDeadline caps the
	// per-request deadline_ms; zero means no cap.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// QueueHighWatermark arms admission-control shedding: once the queued
	// depth reaches it, external submissions are rejected early (429
	// queue_busy + Retry-After) while the remaining capacity stays
	// reserved for already-admitted work (sweep-point resubmissions).
	// 0 selects a default of QueueDepth minus a quarter (disabled when
	// the depth is too small to spare headroom); negative disables
	// shedding entirely.
	QueueHighWatermark int
	// SweepHistory bounds the registry of resumable sweep journals
	// (< 1 selects 128).
	SweepHistory int
	// EnableFaultInjection exposes the /v1/fault admin endpoint (arm,
	// inspect, disarm chaos schedules). Off by default: fault injection
	// is a test and drill tool, not a production feature.
	EnableFaultInjection bool
	// Logger, when set, receives one structured line per request (trace
	// ID, route, outcome code, latency). Nil disables request logging —
	// the default for embedded and test servers.
	Logger *slog.Logger
}

// Server is the service state: one base engine, one bounded queue, one
// content-addressed cache, and the HTTP mux over them. Create with New,
// serve via ServeHTTP (it implements http.Handler), stop with Close.
type Server struct {
	cfg    Config
	base   *multival.Engine
	queue  *Queue
	cache  *Cache // derived artifacts: family models, functional models, perf models, measures, checks
	models *Cache // uploaded models, keyed by content digest
	sweeps *sweepRegistry
	mux    *http.ServeMux
	start  time.Time
	builds buildCounters
	log    *slog.Logger

	// Observability (see metrics.go): the registry behind /metrics, the
	// per-stage and per-route latency histograms, and the sweep counters.
	metrics      *obs.Registry
	stageHist    map[string]*obs.Histogram
	reqHist      map[string]*obs.Histogram
	sweepStarted *obs.Counter
	sweepPoints  map[string]*obs.Counter
}

// buildCounters tallies the artifact builds actually performed, one
// counter per cache layer. Cache hits do not increment them, so the
// difference between grid points and builds is exactly the sharing a
// sweep achieved. The counters are registry series (metrics.go), so
// /v1/stats and /metrics report the same numbers from one source.
type buildCounters struct {
	family     *obs.Counter
	functional *obs.Counter
	perf       *obs.Counter
	measure    *obs.Counter
	check      *obs.Counter
}

// BuildStats is the wire snapshot of the per-layer artifact build
// counters.
type BuildStats struct {
	// Family counts component model builds of sweep families.
	Family int64 `json:"family"`
	// Functional counts composed+minimized functional models.
	Functional int64 `json:"functional"`
	// Perf counts decorated (and lumped) performance models.
	Perf int64 `json:"perf"`
	// Measure counts solved measure sets (steady-state or transient).
	Measure int64 `json:"measure"`
	// Check counts evaluated model-checking queries.
	Check int64 `json:"check"`
}

// Total sums the per-layer build counts.
func (b BuildStats) Total() int64 {
	return b.Family + b.Functional + b.Perf + b.Measure + b.Check
}

// Sub returns the per-layer difference b - prev (the builds performed
// between two snapshots).
func (b BuildStats) Sub(prev BuildStats) BuildStats {
	return BuildStats{
		Family:     b.Family - prev.Family,
		Functional: b.Functional - prev.Functional,
		Perf:       b.Perf - prev.Perf,
		Measure:    b.Measure - prev.Measure,
		Check:      b.Check - prev.Check,
	}
}

func (c *buildCounters) snapshot() BuildStats {
	return BuildStats{
		Family:     c.family.Value(),
		Functional: c.functional.Value(),
		Perf:       c.perf.Value(),
		Measure:    c.measure.Value(),
		Check:      c.check.Value(),
	}
}

// storedModel is the cache entry of an uploaded or inline model.
type storedModel struct {
	m    *multival.Model
	hash string
}

// New builds a Server from the config and starts its queue workers.
func New(cfg Config) *Server {
	eng := cfg.Engine
	if eng == nil {
		eng = multival.NewEngine()
	}
	s := &Server{
		cfg:    cfg,
		base:   eng,
		queue:  NewQueue(cfg.QueueWorkers, cfg.QueueDepth),
		cache:  NewCache(cfg.CacheEntries),
		models: NewCache(cfg.ModelEntries),
		sweeps: newSweepRegistry(cfg.SweepHistory),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		log:    cfg.Logger,
	}
	s.initObservability()
	wm := cfg.QueueHighWatermark
	if wm == 0 {
		// Default: reserve a quarter of the depth (at least one slot) for
		// already-admitted work. Depth-1 queues have no headroom to
		// reserve, so shedding stays off there.
		depth := cfg.QueueDepth
		if depth < 1 {
			depth = 1
		}
		wm = depth - max(1, depth/4)
	}
	if wm > 0 {
		s.queue.SetHighWatermark(wm)
	}
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/sweeps", s.handleSweeps)
	s.mux.HandleFunc("/v1/sweeps/", s.handleSweepStatus)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	if cfg.EnableFaultInjection {
		s.mux.HandleFunc("/v1/fault", s.handleFault)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops accepting requests and waits for in-flight work to drain.
func (s *Server) Close() { s.queue.Close() }

// Drain stops admission and waits for queued and in-flight work, bounded
// by ctx (see Queue.Drain): on expiry it returns the context error while
// the stragglers keep running under their own deadlines. Graceful
// shutdown drains the queue first, then shuts the HTTP listener down.
func (s *Server) Drain(ctx context.Context) error { return s.queue.Drain(ctx) }

// writeError writes the structured JSON error body for err. Rejections
// carrying a backoff hint (RetryAfterError) get the Retry-After header
// (whole seconds, floored to 1 — the header has no finer unit) and the
// millisecond-precision retry_after_ms body field clients should prefer.
func writeError(w http.ResponseWriter, err error) {
	code, status := ErrorCode(err)
	body := ErrorBody{Error: Error{Code: code, Message: err.Error()}}
	var ra *RetryAfterError
	if errors.As(err, &ra) {
		ms := ra.After.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		body.Error.RetryAfterMS = ms
		secs := int64((ra.After + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = EncodeJSON(w, body)
}

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = EncodeJSON(w, v)
}

// maxModelBytes bounds uploaded model bodies (64 MiB: a few million
// transitions of .aut text).
const maxModelBytes = 64 << 20

// ModelInfo is the response of POST /v1/models.
type ModelInfo struct {
	Hash        string `json:"hash"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
}

// storeModel parses .aut text, hashes its frozen form and stores it
// under its content address, so behaviourally identical uploads share
// one entry.
func (s *Server) storeModel(text string) (*storedModel, error) {
	l, err := aut.ReadString(text)
	if err != nil {
		return nil, badRequestf("parsing model: %v", err)
	}
	m := s.base.FromLTS(l)
	sm := &storedModel{m: m, hash: m.Hash()}
	// The artifact is already built; Do only publishes it (and dedups
	// against a concurrent identical upload).
	_, _, err = s.models.Do(context.Background(), sm.hash, func() (any, error) {
		return sm, nil
	})
	if err != nil {
		return nil, err
	}
	return sm, nil
}

// lookupModel resolves a content digest to a stored model.
func (s *Server) lookupModel(hash string) (*storedModel, error) {
	v, ok := s.models.Get(hash)
	if !ok {
		return nil, fmt.Errorf("%w: %s", errUnknownModel, hash)
	}
	return v.(*storedModel), nil
}

// handleModels uploads one model per request body.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, badRequestf("use POST"))
		return
	}
	t0 := time.Now()
	traceID := traceIDFrom(r)
	w.Header().Set("X-Request-Id", traceID)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxModelBytes))
	if err != nil {
		err = badRequestf("reading body: %v", err)
		s.logRequest(traceID, routeModels, err, time.Since(t0))
		writeError(w, err)
		return
	}
	sm, err := s.storeModel(string(body))
	if err != nil {
		s.logRequest(traceID, routeModels, err, time.Since(t0))
		writeError(w, err)
		return
	}
	s.logRequest(traceID, routeModels, nil, time.Since(t0), slog.String("model_hash", sm.hash))
	writeJSON(w, ModelInfo{Hash: sm.hash, States: sm.m.States(), Transitions: sm.m.Transitions()})
}

// resolveModels materializes the request's composition operands and
// their content digests, enforcing that exactly one of the four model
// fields is used.
func (s *Server) resolveModels(req *SolveRequest) ([]*multival.Model, []string, error) {
	ways := 0
	for _, set := range []bool{req.Model != "", req.ModelHash != "", len(req.Models) > 0, len(req.ModelHashes) > 0} {
		if set {
			ways++
		}
	}
	if ways != 1 {
		return nil, nil, badRequestf("set exactly one of model, model_hash, models, model_hashes")
	}
	var texts, hashes []string
	switch {
	case req.Model != "":
		texts = []string{req.Model}
	case len(req.Models) > 0:
		texts = req.Models
	case req.ModelHash != "":
		hashes = []string{req.ModelHash}
	default:
		hashes = req.ModelHashes
	}
	var models []*multival.Model
	var out []string
	for _, text := range texts {
		sm, err := s.storeModel(text)
		if err != nil {
			return nil, nil, err
		}
		models = append(models, sm.m)
		out = append(out, sm.hash)
	}
	for _, h := range hashes {
		sm, err := s.lookupModel(h)
		if err != nil {
			return nil, nil, err
		}
		models = append(models, sm.m)
		out = append(out, sm.hash)
	}
	return models, out, nil
}

// The artifact cache is layered: each layer's spec embeds the key of the
// layer below it, so changing a parameter invalidates exactly the layers
// it shapes. A sweep varying only rates shares one functional model
// across all its perf builds; varying only the query time shares even
// the lumped CTMC.
//
//	fam/<hash>     component model of a sweep family (structural params)
//	func/<hash>    composed + hidden + minimized functional model
//	perf/<hash>    decorated (+ lumped) performance model
//	measure/<hash> solved measure set
//	check/<hash>   model-checking verdict
//
// funcSpec is the canonical identity of a functional model.
type funcSpec struct {
	ModelHashes []string `json:"m"`
	Sync        []string `json:"sync,omitempty"`
	Hide        []string `json:"hide,omitempty"`
	Minimize    string   `json:"min,omitempty"`
}

// perfSpec is the canonical identity of a performance model over a
// functional artifact. Requests with equal perfSpecs share one cached
// PerfModel — and with it one maximal-progress pass and one CTMC
// extraction.
type perfSpec struct {
	Func    string             `json:"func"`
	Rates   map[string]float64 `json:"rates"`
	Markers []string           `json:"markers,omitempty"`
	Lump    bool               `json:"lump"`
	Uniform bool               `json:"uniform,omitempty"`
}

// measureSpec is the canonical identity of one solved measure set over a
// performance model.
type measureSpec struct {
	Perf string  `json:"perf"`
	Kind string  `json:"kind"`
	At   float64 `json:"at,omitempty"`
}

// checkSpec is the canonical identity of one model-checking verdict over
// a functional artifact. The query string is part of the identity, so
// preset spellings must stay stable (see mcl.ParseQuery).
type checkSpec struct {
	Func  string `json:"func"`
	Query string `json:"q"`
}

// solveOutcome carries the result of a queued execution back to the
// handler goroutine.
type solveOutcome struct {
	res *Result
	err error
}

// requestDeadline derives the request context: the client-disconnect
// context bounded by deadline_ms (capped by MaxDeadline) or the server
// default.
func (s *Server) requestDeadline(r *http.Request, req *SolveRequest) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		d = time.Duration(req.DeadlineMS) * time.Millisecond
		if s.cfg.MaxDeadline > 0 && d > s.cfg.MaxDeadline {
			d = s.cfg.MaxDeadline
		}
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// handleSolve executes one pipeline request through the queue.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, badRequestf("use POST"))
		return
	}
	t0 := time.Now()
	traceID := traceIDFrom(r)
	w.Header().Set("X-Request-Id", traceID)
	req, err := decodeSolveRequest(r)
	if err != nil {
		s.logRequest(traceID, routeSolve, err, time.Since(t0))
		writeError(w, err)
		return
	}

	ctx, cancel := s.requestDeadline(r, req)
	defer cancel()

	// The span recorder attributes this request's wall time to pipeline
	// stages: cache-layer builds bracket their stage explicitly and the
	// engine's progress events refine the switches within a build. A
	// fully cache-served request triggers neither, so it records no
	// spans — executed stages only.
	rec := obs.NewSpanRecorder()

	// The progress relay decouples the engine hook from the response
	// stream: sends never block (buffered, drop-on-full), so a hook
	// captured inside a cached artifact stays harmless after this
	// request is gone. Done reports (exact final counts) are the one
	// kind an observer must not throttle away: on a full buffer they
	// evict the oldest snapshot instead of being dropped themselves.
	relay := make(chan multival.Progress, 32)
	hook := func(p multival.Progress) {
		rec.Observe(p)
		for {
			select {
			case relay <- p:
				return
			default:
			}
			if !p.Done {
				return
			}
			select {
			case <-relay:
			default:
			}
		}
	}
	streaming := wantsStream(r)

	resCh := make(chan solveOutcome, 1)
	submitErr := s.queue.Submit(ctx, func(ctx context.Context) {
		// A panicking execution must still answer the waiting handler —
		// the channel send below would otherwise never happen and the
		// client would hang until its deadline (or forever without one).
		// The structured 500 is sent first, then the panic is re-raised
		// so the queue worker's recover counts it in QueueStats.
		defer func() {
			if r := recover(); r != nil {
				resCh <- solveOutcome{err: internalf("executing request panicked: %v", r)}
				panic(r)
			}
		}()
		res, err := s.execute(ctx, req, hook, rec)
		resCh <- solveOutcome{res: res, err: err}
	})
	if submitErr != nil {
		s.logRequest(traceID, routeSolve, submitErr, time.Since(t0))
		writeError(w, submitErr)
		return
	}

	// finalize stamps the trace identity and timing block onto a
	// successful result just before it is written; logOutcome emits the
	// request's one structured log line (and the per-route metrics)
	// either way.
	finalize := func(res *Result) {
		res.TraceID = traceID
		res.DurationMS = durationMS(time.Since(t0))
		res.Stages = s.recordStages(rec)
	}
	logOutcome := func(res *Result, err error) {
		var attrs []slog.Attr
		if res != nil {
			attrs = append(attrs,
				slog.String("model_hash", res.ModelHash),
				slog.Bool("cache_hit", res.CacheHit))
		}
		s.logRequest(traceID, routeSolve, err, time.Since(t0), attrs...)
	}

	if streaming {
		res, err := s.streamSolve(ctx, w, relay, resCh, finalize)
		logOutcome(res, err)
		return
	}
	select {
	case out := <-resCh:
		if out.err != nil {
			s.recordStages(rec) // partial stages still feed the histograms
			logOutcome(nil, out.err)
			writeError(w, out.err)
			return
		}
		finalize(out.res)
		logOutcome(out.res, nil)
		writeJSON(w, out.res)
	case <-ctx.Done():
		// Deadline hit while queued or mid-computation: the job either
		// never runs (the queue skips done contexts) or aborts at its
		// next round boundary. Either way the client gets the
		// structured deadline error now.
		s.recordStages(rec)
		logOutcome(nil, ctx.Err())
		writeError(w, ctx.Err())
	}
}

// decodeSolveRequest parses and sanity-checks the request body.
func decodeSolveRequest(r *http.Request) (*SolveRequest, error) {
	var req SolveRequest
	body := http.MaxBytesReader(nil, r.Body, maxModelBytes)
	if err := DecodeJSON(body, &req); err != nil {
		return nil, badRequestf("decoding request: %v", err)
	}
	if len(req.Rates) == 0 {
		return nil, badRequestf("rates must name at least one gate=rate pair")
	}
	if req.Minimize != "" {
		if _, err := multival.ParseRelation(req.Minimize); err != nil {
			return nil, badRequestf("%v", err)
		}
	}
	if req.At != nil && *req.At < 0 {
		return nil, badRequestf("at must be >= 0")
	}
	return &req, nil
}

// wantsStream reports whether the client asked for SSE progress. The
// Accept header is matched by media type, not whole-string equality:
// EventSource clients commonly send lists ("text/event-stream,
// application/json") or parameters.
func wantsStream(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "1" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// streamSolve writes the SSE response: progress events while the job
// runs, then one result or error event. finalize stamps trace identity
// and stage timings onto the result before it is emitted; the outcome
// is returned so the caller can write its log line.
func (s *Server) streamSolve(ctx context.Context, w http.ResponseWriter, relay <-chan multival.Progress, resCh <-chan solveOutcome, finalize func(*Result)) (*Result, error) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	emit := func(event string, v any) {
		fmt.Fprintf(w, "event: %s\ndata: ", event)
		_ = EncodeJSONCompact(w, v)
		fmt.Fprint(w, "\n\n")
		if flusher != nil {
			flusher.Flush()
		}
	}
	for {
		select {
		case p := <-relay:
			emit("progress", p)
		case out := <-resCh:
			if out.err != nil {
				code, _ := ErrorCode(out.err)
				emit("error", ErrorBody{Error: Error{Code: code, Message: out.err.Error()}})
				return nil, out.err
			}
			finalize(out.res)
			emit("result", out.res)
			return out.res, nil
		case <-ctx.Done():
			code, _ := ErrorCode(ctx.Err())
			emit("error", ErrorBody{Error: Error{Code: code, Message: ctx.Err().Error()}})
			return nil, ctx.Err()
		}
	}
}

// executeHook, when non-nil, observes every request before execution;
// tests use it to inject failures (panics) into the queued execution
// path.
var executeHook func(*SolveRequest)

// execute runs one request on a queue worker: materialize the models
// (inline texts parse here, not on the handler goroutine, so the queue
// bounds that CPU work too), then run the layered pipeline over them.
func (s *Server) execute(ctx context.Context, req *SolveRequest, hook multival.ProgressFunc, rec *obs.SpanRecorder) (*Result, error) {
	if executeHook != nil {
		executeHook(req)
	}
	if err := fault.Hit(PointExecute); err != nil {
		return nil, err
	}
	models, hashes, err := s.resolveModels(req)
	if err != nil {
		return nil, err
	}
	spec := pipeSpec{
		Sync:                 req.Sync,
		Hide:                 req.Hide,
		Minimize:             req.Minimize,
		Rates:                req.Rates,
		Markers:              req.Markers,
		Lump:                 req.Lump == nil || *req.Lump,
		Uniform:              req.UniformScheduler,
		Kind:                 "steady",
		MeanTimeTo:           req.MeanTimeTo,
		Bounds:               req.Bounds,
		Check:                req.Check,
		IncludeProbabilities: req.IncludeProbabilities,
		Workers:              req.Workers,
	}
	if req.At != nil {
		spec.Kind, spec.At = "transient", *req.At
	}
	return s.executeSpec(ctx, models, hashes, spec, hook, rec)
}

// pipeSpec is the fully resolved description of one pipeline execution —
// what remains of a SolveRequest (or a sweep instance) once the models
// are materialized.
type pipeSpec struct {
	Sync, Hide           []string
	Minimize             string
	Rates                map[string]float64
	Markers              []string
	Lump                 bool
	Uniform              bool
	Kind                 string // "steady" or "transient"
	At                   float64
	MeanTimeTo           []string
	Bounds               []string
	Check                []string
	IncludeProbabilities bool
	Workers              int
}

// executeSpec runs the layered pipeline: share or build the functional
// model, evaluate property queries on it, share or build the performance
// model and the measures, then assemble the wire result.
//
// rec (optional) is the request's span recorder: each cache layer's
// build function opens its pipeline stage on entry, so cache hits and
// singleflight joins record nothing — executed stages only — while the
// engine's progress events refine the switches within a build (compose →
// minimize, decorate → lump).
func (s *Server) executeSpec(ctx context.Context, models []*multival.Model, hashes []string, spec pipeSpec, hook multival.ProgressFunc, rec *obs.SpanRecorder) (*Result, error) {
	var opts []multival.Option
	if spec.Workers > 0 {
		opts = append(opts, multival.WithWorkers(spec.Workers))
	}
	if spec.Uniform {
		opts = append(opts, multival.WithScheduler(multival.UniformScheduler{}))
	}
	if hook != nil {
		opts = append(opts, multival.WithProgress(hook))
	}
	eng := s.base.With(opts...)

	fSpec := funcSpec{ModelHashes: hashes, Sync: spec.Sync, Hide: spec.Hide, Minimize: spec.Minimize}
	funcKey := "func/" + specHash(fSpec)
	v, _, err := s.cache.Do(ctx, funcKey, func() (any, error) {
		rec.Enter(obs.StageCompose)
		p := eng.Compose(models...).Sync(spec.Sync...).Hide(spec.Hide...)
		if spec.Minimize != "" {
			rel, err := multival.ParseRelation(spec.Minimize)
			if err != nil {
				return nil, badRequestf("%v", err)
			}
			p = p.Minimize(rel)
		}
		m, err := p.Model(ctx)
		if err != nil {
			return nil, err
		}
		s.builds.functional.Add(1)
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	fm := v.(*multival.Model)

	var checks []QueryCheck
	for _, q := range spec.Check {
		cr, err := s.runCheck(ctx, funcKey, fm, q, rec)
		if err != nil {
			return nil, err
		}
		checks = append(checks, cr)
	}

	pSpec := perfSpec{
		Func:    funcKey,
		Rates:   spec.Rates,
		Markers: spec.Markers,
		Lump:    spec.Lump,
		Uniform: spec.Uniform,
	}
	perfKey := "perf/" + specHash(pSpec)
	v, _, err = s.cache.Do(ctx, perfKey, func() (any, error) {
		rec.Enter(obs.StageDecorate)
		p := eng.Compose(fm).DecorateGateRates(spec.Rates, spec.Markers...)
		if spec.Lump {
			p = p.Lump()
		}
		pm, err := p.Perf(ctx)
		if err != nil {
			return nil, err
		}
		s.builds.perf.Add(1)
		return pm, nil
	})
	if err != nil {
		return nil, err
	}
	pm := v.(*multival.PerfModel)

	mSpec := measureSpec{Perf: perfKey, Kind: spec.Kind, At: spec.At}
	v, hit, err := s.cache.Do(ctx, "measure/"+specHash(mSpec), func() (any, error) {
		rec.Enter(obs.StageSolve)
		if spec.Kind == "transient" {
			ms, err := pm.Transient(ctx, spec.At)
			if err != nil {
				return nil, err
			}
			s.builds.measure.Add(1)
			return ms, nil
		}
		ms, err := pm.SteadyState(ctx)
		if err != nil {
			return nil, err
		}
		s.builds.measure.Add(1)
		return ms, nil
	})
	if err != nil {
		return nil, err
	}
	ms := v.(*multival.Measures)

	res := ResultFromMeasures(ms, spec.Kind, spec.At, spec.IncludeProbabilities)
	res.ModelHash = hashes[0]
	res.IMCStates = pm.States()
	res.CacheHit = hit
	res.Checks = checks
	if len(spec.MeanTimeTo) > 0 {
		// First-passage and bound solves are computed per request (not
		// cached), so they are solve-stage work even on warm pipelines.
		rec.Enter(obs.StageSolve)
		res.MeanTimes = make(map[string]float64, len(spec.MeanTimeTo))
		for _, lab := range spec.MeanTimeTo {
			t, err := pm.MeanTimeTo(ctx, lab)
			if err != nil {
				return nil, err
			}
			res.MeanTimes[lab] = t
		}
	}
	if len(spec.Bounds) > 0 {
		rec.Enter(obs.StageSolve)
		res.Bounds = make(map[string][2]float64, len(spec.Bounds))
		for _, lab := range spec.Bounds {
			lo, hi, err := pm.ThroughputBounds(ctx, lab)
			if err != nil {
				return nil, err
			}
			res.Bounds[lab] = [2]float64{lo, hi}
		}
	}
	return res, nil
}

// runCheck evaluates one property query against a functional model,
// sharing verdicts through the cache. The evaluation observes ctx, so a
// deadline or cancel stops it; a panic in it fails the request as an
// internal error.
func (s *Server) runCheck(ctx context.Context, funcKey string, fm *multival.Model, query string, rec *obs.SpanRecorder) (QueryCheck, error) {
	cSpec := checkSpec{Func: funcKey, Query: query}
	v, _, err := s.cache.Do(ctx, "check/"+specHash(cSpec), func() (_ any, err error) {
		rec.Enter(obs.StageCheck)
		f, err := mcl.ParseQuery(query)
		if err != nil {
			return nil, badRequestf("%v", err)
		}
		defer func() {
			if p := recover(); p != nil {
				err = internalf("evaluating %q panicked: %v", query, p)
			}
		}()
		r, err := mcl.Verify(ctx, fm.L, f)
		if err != nil {
			return nil, err
		}
		s.builds.check.Add(1)
		return &QueryCheck{
			Query: query,
			CheckResult: CheckResult{
				Holds:     r.Holds,
				Formula:   r.Formula,
				SatCount:  r.SatCount,
				NumStates: r.NumStates,
				Witness:   r.Witness,
			},
		}, nil
	})
	if err != nil {
		return QueryCheck{}, err
	}
	return *v.(*QueryCheck), nil
}

// ArtifactTotals aggregates the PerfModel artifact counters over the
// currently cached performance models: the observability hook behind
// "N identical requests cost one extraction".
type ArtifactTotals struct {
	PerfModels      int `json:"perf_models"`
	MaximalProgress int `json:"maximal_progress"`
	Extractions     int `json:"extractions"`
	Redirected      int `json:"redirected"`
}

// StatsBody is the response of GET /v1/stats. Fault, present only while
// a chaos schedule is armed, is the per-point injection counters — the
// proof that a chaos run's faults actually fired.
type StatsBody struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// SnapshotUnixMS timestamps this snapshot (Unix milliseconds), so
	// pollers can order and rate samples without trusting their own
	// clocks against retries and proxies.
	SnapshotUnixMS int64 `json:"snapshot_unix_ms"`
	// Server is the binary's build identity (module version, VCS
	// revision when stamped, Go toolchain).
	Server    obs.BuildInfo               `json:"server"`
	Queue     QueueStats                  `json:"queue"`
	Cache     CacheStats                  `json:"cache"`
	Models    CacheStats                  `json:"models"`
	Builds    BuildStats                  `json:"builds"`
	Artifacts ArtifactTotals              `json:"artifacts"`
	Solver    multival.SolverFallbacks    `json:"solver"`
	Sweeps    int                         `json:"sweeps"`
	Fault     map[string]fault.PointStats `json:"fault,omitempty"`
}

// Stats assembles the current service counters.
func (s *Server) Stats() StatsBody {
	body := StatsBody{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		SnapshotUnixMS: time.Now().UnixMilli(),
		Server:         obs.ReadBuildInfo(),
		Queue:          s.queue.Stats(),
		Cache:          s.cache.Stats(),
		Models:         s.models.Stats(),
		Builds:         s.builds.snapshot(),
		Solver:         multival.SolverFallbackStats(),
		Sweeps:         s.sweeps.size(),
	}
	if p := fault.Active(); p != nil {
		body.Fault = p.Stats()
	}
	s.cache.Each(func(_ string, v any) {
		pm, ok := v.(*multival.PerfModel)
		if !ok {
			return
		}
		a := pm.Artifacts()
		body.Artifacts.PerfModels++
		body.Artifacts.MaximalProgress += a.MaximalProgress
		body.Artifacts.Extractions += a.Extractions
		body.Artifacts.Redirected += a.Redirected
	})
	return body
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]bool{"ok": true})
}

// FaultRequest is the body of POST /v1/fault: a chaos schedule in the
// fault-spec grammar (see internal/fault.ParseSpec) and the seed of its
// probabilistic draws.
type FaultRequest struct {
	Spec string `json:"spec"`
	Seed int64  `json:"seed,omitempty"`
}

// FaultStatus reports the armed chaos schedule and its per-point
// injection counters.
type FaultStatus struct {
	Enabled bool                        `json:"enabled"`
	Seed    int64                       `json:"seed,omitempty"`
	Points  map[string]fault.PointStats `json:"points,omitempty"`
}

// handleFault is the chaos admin endpoint (registered only with
// EnableFaultInjection): POST arms a schedule, GET reports what fired,
// DELETE disarms — returning the final counters so a drill script can
// record them.
func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req FaultRequest
		if err := DecodeJSON(http.MaxBytesReader(nil, r.Body, 1<<20), &req); err != nil {
			writeError(w, badRequestf("decoding request: %v", err))
			return
		}
		rules, err := fault.ParseSpec(req.Spec)
		if err != nil {
			writeError(w, badRequestf("%v", err))
			return
		}
		if err := fault.ValidateRules(rules); err != nil {
			writeError(w, badRequestf("%v", err))
			return
		}
		fault.Activate(fault.NewPlan(req.Seed, rules...))
		writeJSON(w, FaultStatus{Enabled: true, Seed: req.Seed})
	case http.MethodGet:
		var st FaultStatus
		if p := fault.Active(); p != nil {
			st.Enabled, st.Seed, st.Points = true, p.Seed(), p.Stats()
		}
		writeJSON(w, st)
	case http.MethodDelete:
		var st FaultStatus
		if p := fault.Active(); p != nil {
			st.Seed, st.Points = p.Seed(), p.Stats()
		}
		fault.Deactivate()
		writeJSON(w, st)
	default:
		w.Header().Set("Allow", "GET, POST, DELETE")
		writeError(w, badRequestf("use GET, POST or DELETE"))
	}
}
