// Parameter sweeps: POST /v1/sweeps expands a model-family grid into
// pipeline instances and executes them through the same bounded queue and
// content-addressed cache as /v1/solve. Canonical instance specs make the
// sharing automatic — grid points differing only in rates share one
// functional model, points differing only in the query time share even
// the lumped CTMC — and /v1/stats' build counters prove it.
//
// Execution is resilient by construction: every sweep gets an ID and a
// journal of completed points (resume with {"resume": ID}, inspect with
// GET /v1/sweeps/{id}), queue-full rejections are waited out under the
// shared jittered backoff, and transiently failing points (a recovered
// panic, an admission burst that outlived the backoff) are retried a
// bounded number of times before they are classified into the rollup.

package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"multival"
	"multival/internal/fault"
	"multival/internal/lts"
	"multival/internal/obs"
	"multival/internal/retry"
	"multival/internal/sweep"
)

// PointSweepPoint is the fault point at the head of every sweep-point
// execution attempt (before queue submission): an error rule fails the
// attempt (retried if the injected sentinel is transient), a latency
// rule slows the sweep down without changing its results.
const PointSweepPoint = "serve.sweep.point"

// SweepRequest is the body of POST /v1/sweeps: a family name, fixed
// parameter values, and the grid of swept axes — or a resume of an
// earlier sweep by ID.
type SweepRequest struct {
	// Family names a registered model family (fame, faust, xstream, chp,
	// lotos).
	Family string `json:"family"`
	// Params fixes parameter values shared by every grid point; Grid maps
	// swept parameter names to their value lists. The sweep runs the full
	// cross product, axes sorted by name, rightmost fastest.
	Params map[string]any   `json:"params,omitempty"`
	Grid   map[string][]any `json:"grid,omitempty"`
	// Resume names an earlier sweep whose journal of completed points is
	// reused: journaled points are restored without re-execution and only
	// the remainder runs. With an empty Family the stored request of the
	// resumed sweep is replayed verbatim.
	Resume string `json:"resume,omitempty"`
	// Check lists property queries (mcl presets or raw formulas)
	// evaluated against every instance's functional model.
	Check []string `json:"check,omitempty"`
	// Lump (default true) lumps every instance's decorated model.
	Lump *bool `json:"lump,omitempty"`
	// Concurrency bounds the number of instances in flight at once
	// (default: the queue's worker count). The queue's own admission
	// control still applies; the sweep waits out full queues under the
	// shared backoff policy.
	Concurrency int `json:"concurrency,omitempty"`
	// MaxAttempts bounds the executions of one point: transient failures
	// (recovered panics, admission bursts) are retried with backoff up to
	// this many attempts before the point fails into the rollup
	// (default 3, capped at 10).
	MaxAttempts int `json:"max_attempts,omitempty"`
	// DeadlineMS bounds the whole sweep; InstanceDeadlineMS bounds each
	// instance (both capped by the server's MaxDeadline).
	DeadlineMS         int `json:"deadline_ms,omitempty"`
	InstanceDeadlineMS int `json:"instance_deadline_ms,omitempty"`
	// Workers overrides the engine worker count per instance.
	Workers              int  `json:"workers,omitempty"`
	IncludeProbabilities bool `json:"include_probabilities,omitempty"`
}

// SweepPoint is the outcome of one grid point: its coordinates plus
// either a result or a classified error. One diverging instance fails
// alone — the sweep continues. Resumed marks points restored from an
// earlier run's journal instead of executed.
type SweepPoint struct {
	Index   int            `json:"index"`
	Point   map[string]any `json:"point"`
	Result  *Result        `json:"result,omitempty"`
	Error   *Error         `json:"error,omitempty"`
	Resumed bool           `json:"resumed,omitempty"`

	// key is the content-addressed identity of the point (component keys
	// + resolved pipeline spec); it stays server-side, keying the journal.
	key string
}

// SweepResponse aggregates a sweep: per-point results in grid order plus
// the sharing evidence (distinct models, builds performed during the
// sweep, cache hits).
type SweepResponse struct {
	// ID identifies the sweep for GET /v1/sweeps/{id} and resume.
	ID         string `json:"sweep_id"`
	Family     string `json:"family"`
	GridPoints int    `json:"grid_points"`
	Completed  int    `json:"completed"`
	Failed     int    `json:"failed"`
	// Resumed counts points restored from the journal of the resumed
	// sweep (included in Completed); Retries counts point execution
	// retries performed under the transient-failure policy.
	Resumed int   `json:"resumed,omitempty"`
	Retries int64 `json:"retries,omitempty"`
	// DistinctModels counts the distinct component model identities over
	// the whole grid — the number of structural configurations actually
	// present.
	DistinctModels int `json:"distinct_models"`
	// Builds is the per-layer count of artifact builds this sweep
	// performed (cache hits excluded); on a warm cache it approaches
	// zero. CacheHits counts artifact-cache hits during the sweep
	// (including joins of in-flight builds).
	Builds    BuildStats `json:"builds"`
	CacheHits int64      `json:"cache_hits"`
	ElapsedMS float64    `json:"elapsed_ms"`
	// ErrorCounts tallies failed points by wire error code.
	ErrorCounts map[string]int `json:"error_counts,omitempty"`
	Results     []SweepPoint   `json:"results"`
}

// famComponent shares or builds one family component model, publishing it
// in the model store so later requests can address it by content digest.
func (s *Server) famComponent(ctx context.Context, c sweep.Component, rec *obs.SpanRecorder) (*storedModel, error) {
	v, _, err := s.cache.Do(ctx, "fam/"+specHash(c.Key), func() (any, error) {
		rec.Enter(obs.StageCompose)
		l, err := c.Build()
		if err != nil {
			return nil, err
		}
		m := s.base.FromLTS(l)
		sm := &storedModel{m: m, hash: m.Hash()}
		_, _, err = s.models.Do(context.Background(), sm.hash, func() (any, error) {
			return sm, nil
		})
		if err != nil {
			return nil, err
		}
		s.builds.family.Add(1)
		return sm, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*storedModel), nil
}

// sweepPlan is the expanded, validated sweep before execution.
type sweepPlan struct {
	fam            *sweep.Family
	points         []sweep.Point
	instances      []*sweep.Instance
	planErrs       []error  // per-point family build errors (nil = ok)
	keys           []string // content-addressed point identities
	distinctModels int
}

// resolveSweep is everything a sweep validates before its first point
// runs: a resume is looked up in the registry (a bare resume replays the
// stored request, returned in place of req), then the request is
// planned. run is the resumed sweep, or nil for a new one.
func (s *Server) resolveSweep(req *SweepRequest) (*SweepRequest, *sweepRun, *sweepPlan, error) {
	var run *sweepRun
	if req.Resume != "" {
		prev, ok := s.sweeps.get(req.Resume)
		if !ok {
			return nil, nil, nil, fmt.Errorf("%w: %s", errUnknownSweep, req.Resume)
		}
		if req.Family == "" {
			// Bare resume: replay the stored request against the journal.
			prev.mu.Lock()
			stored := prev.request
			prev.mu.Unlock()
			if stored == nil {
				return nil, nil, nil, badRequestf("sweep %s has no stored request; repeat the family and grid", req.Resume)
			}
			replay := *stored
			replay.Resume = req.Resume
			if req.Concurrency > 0 {
				replay.Concurrency = req.Concurrency
			}
			req = &replay
		}
		run = prev
	}
	plan, err := s.planSweep(req)
	if err != nil {
		return nil, nil, nil, err
	}
	return req, run, plan, nil
}

// planSweep expands and validates the request. Errors here are global
// (bad family, bad grid); per-point instance resolution errors are
// recorded in the plan so the rest of the grid still runs.
func (s *Server) planSweep(req *SweepRequest) (*sweepPlan, error) {
	if req.Family == "" {
		return nil, badRequestf("family must name a model family (%v)", sweep.Names())
	}
	fam, ok := sweep.Lookup(req.Family)
	if !ok {
		return nil, badRequestf("unknown family %q (have %v)", req.Family, sweep.Names())
	}
	if len(req.Grid) == 0 {
		return nil, badRequestf("grid must sweep at least one parameter")
	}
	points, err := sweep.Expand(fam, req.Params, req.Grid)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	plan := &sweepPlan{
		fam:       fam,
		points:    points,
		instances: make([]*sweep.Instance, len(points)),
		planErrs:  make([]error, len(points)),
		keys:      make([]string, len(points)),
	}
	distinct := map[string]bool{}
	for i, pt := range points {
		inst, err := fam.Build(pt.Values)
		if err != nil {
			plan.planErrs[i] = badRequestf("point %d: %v", i, err)
			continue
		}
		plan.instances[i] = inst
		plan.keys[i] = pointKey(inst, req.instanceSpec(inst))
		for _, c := range inst.Components {
			distinct[c.Key] = true
		}
	}
	plan.distinctModels = len(distinct)
	return plan, nil
}

// pointKey is the content-addressed identity of one grid point: the
// component keys plus the fully resolved pipeline spec — the same
// identities the artifact cache layers on. Journals key on it, so a
// resume matches points by what they compute.
func pointKey(inst *sweep.Instance, spec pipeSpec) string {
	type pk struct {
		Components []string `json:"c"`
		Spec       pipeSpec `json:"s"`
	}
	keys := make([]string, len(inst.Components))
	for i, c := range inst.Components {
		keys[i] = c.Key
	}
	return specHash(pk{Components: keys, Spec: spec})
}

// instanceSpec maps a resolved instance onto the layered pipeline spec.
func (req *SweepRequest) instanceSpec(inst *sweep.Instance) pipeSpec {
	spec := pipeSpec{
		Sync:                 inst.Sync,
		Hide:                 inst.Hide,
		Minimize:             inst.Minimize,
		Rates:                inst.Rates,
		Markers:              inst.Markers,
		Lump:                 req.Lump == nil || *req.Lump,
		Uniform:              inst.UniformScheduler,
		Kind:                 "steady",
		MeanTimeTo:           inst.MeanTimeTo,
		Check:                req.Check,
		IncludeProbabilities: req.IncludeProbabilities,
		Workers:              req.Workers,
	}
	if inst.At > 0 {
		spec.Kind, spec.At = "transient", inst.At
	}
	return spec
}

// submitPolicy shapes the wait on queue-full rejections: sweep-level
// concurrency already bounds how many instances compete, so full queues
// are short-lived bursts — start at a millisecond, double to a modest
// cap, jitter to desynchronize the competing points, and let the context
// bound the loop.
var submitPolicy = retry.Policy{
	Base:   time.Millisecond,
	Factor: 2,
	Cap:    50 * time.Millisecond,
	Jitter: 0.5,
}

// submitRetry submits a job as reserved (already-admitted) work, waiting
// out admission rejections under the shared backoff policy until the
// context expires. Each backed-off resubmission is counted in
// QueueStats.Retries.
func (s *Server) submitRetry(ctx context.Context, job func(context.Context)) error {
	pol := submitPolicy
	pol.OnRetry = func(int, error, time.Duration) { s.queue.NoteRetry() }
	return retry.Do(ctx, pol, func(err error) bool {
		return errors.Is(err, ErrQueueFull) || errors.Is(err, ErrQueueBusy)
	}, func(ctx context.Context) error {
		return s.queue.SubmitReserved(ctx, job)
	})
}

// pointPolicy shapes the bounded re-execution of transiently failed
// points (recovered panics, admission bursts that outlived the submit
// backoff).
func pointPolicy(maxAttempts int) retry.Policy {
	if maxAttempts < 1 {
		maxAttempts = 3
	}
	if maxAttempts > 10 {
		maxAttempts = 10
	}
	return retry.Policy{
		Base:        2 * time.Millisecond,
		Factor:      2,
		Cap:         100 * time.Millisecond,
		Jitter:      0.5,
		MaxAttempts: maxAttempts,
	}
}

// sweepEvents observes a sweep's lifecycle: onStart sees the sweep ID as
// soon as it is assigned (before any point completes — an interrupted
// client needs the ID to resume), onPoint each completed point in
// completion order.
type sweepEvents struct {
	onStart func(id string)
	onPoint func(SweepPoint)
}

// RunSweep executes a sweep: every grid point becomes one queued pipeline
// execution, at most Concurrency in flight, each bounded by the instance
// deadline, transient failures retried under the shared policy. Completed
// points are journaled under the sweep's ID; a request with Resume set
// restores journaled points and executes only the remainder. onPoint
// (optional) observes each completed point in completion order; the
// response lists them in grid order. The error is non-nil only for
// request-shape problems — per-point failures are classified into the
// response.
func (s *Server) RunSweep(ctx context.Context, req *SweepRequest, onPoint func(SweepPoint)) (*SweepResponse, error) {
	return s.runSweep(ctx, req, sweepEvents{onPoint: onPoint})
}

func (s *Server) runSweep(ctx context.Context, req *SweepRequest, ev sweepEvents) (*SweepResponse, error) {
	req, run, plan, err := s.resolveSweep(req)
	if err != nil {
		return nil, err
	}
	if run == nil {
		run = s.sweeps.create(plan.fam.Name)
	}
	if err := run.begin(req, len(plan.points)); err != nil {
		return nil, err
	}
	s.sweepStarted.Inc()
	if ev.onStart != nil {
		ev.onStart(run.id)
	}

	start := time.Now()
	buildsBefore := s.builds.snapshot()
	cacheBefore := s.cache.Stats()

	conc := req.Concurrency
	if conc < 1 {
		conc = s.queue.Stats().Workers
	}
	if conc > 64 {
		conc = 64
	}

	instDeadline := time.Duration(req.InstanceDeadlineMS) * time.Millisecond
	if s.cfg.MaxDeadline > 0 && (instDeadline <= 0 || instDeadline > s.cfg.MaxDeadline) {
		instDeadline = s.cfg.MaxDeadline
	}

	var retries atomic.Int64
	resCh := make(chan SweepPoint)
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i := range plan.points {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resCh <- s.runPoint(ctx, req, plan, run, i, sem, instDeadline, &retries)
		}(i)
	}
	go func() {
		wg.Wait()
		close(resCh)
	}()

	resp := &SweepResponse{
		ID:             run.id,
		Family:         plan.fam.Name,
		GridPoints:     len(plan.points),
		DistinctModels: plan.distinctModels,
		ErrorCounts:    map[string]int{},
		Results:        make([]SweepPoint, len(plan.points)),
	}
	for sp := range resCh {
		resp.Results[sp.Index] = sp
		run.record(sp)
		if sp.Error != nil {
			resp.Failed++
			resp.ErrorCounts[sp.Error.Code]++
			s.sweepPoints["failed"].Inc()
		} else {
			resp.Completed++
			s.sweepPoints["completed"].Inc()
			if sp.Resumed {
				resp.Resumed++
				s.sweepPoints["resumed"].Inc()
			}
		}
		if ev.onPoint != nil {
			ev.onPoint(sp)
		}
	}
	if len(resp.ErrorCounts) == 0 {
		resp.ErrorCounts = nil
	}
	resp.Retries = retries.Load()
	run.finish(resp.Retries)
	resp.Builds = s.builds.snapshot().Sub(buildsBefore)
	cacheAfter := s.cache.Stats()
	resp.CacheHits = (cacheAfter.Hits - cacheBefore.Hits) + (cacheAfter.Shared - cacheBefore.Shared)
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return resp, nil
}

// runPoint executes one grid point: restore it from the journal if an
// earlier run completed it, else acquire a concurrency slot and run the
// pipeline spec on a queue worker, retrying transient failures under the
// shared policy.
func (s *Server) runPoint(ctx context.Context, req *SweepRequest, plan *sweepPlan, run *sweepRun, i int, sem chan struct{}, instDeadline time.Duration, retries *atomic.Int64) SweepPoint {
	sp := SweepPoint{Index: i, Point: plan.points[i].Coord, key: plan.keys[i]}
	fail := func(err error) SweepPoint {
		code, _ := ErrorCode(err)
		sp.Error = &Error{Code: code, Message: err.Error()}
		return sp
	}
	if err := plan.planErrs[i]; err != nil {
		return fail(err)
	}
	if prev, ok := run.lookup(sp.key); ok {
		// Journaled by an earlier pass: restore without executing. The
		// index and coordinates follow the current grid; the result is
		// the journaled one.
		sp.Result = prev.Result
		sp.Resumed = true
		return sp
	}
	select {
	case sem <- struct{}{}:
		defer func() { <-sem }()
	case <-ctx.Done():
		return fail(ctx.Err())
	}

	instCtx, cancel := ctx, context.CancelFunc(func() {})
	if instDeadline > 0 {
		instCtx, cancel = context.WithTimeout(ctx, instDeadline)
	}
	defer cancel()

	inst := plan.instances[i]
	pol := pointPolicy(req.MaxAttempts)
	pol.OnRetry = func(int, error, time.Duration) { retries.Add(1) }
	var res *Result
	err := retry.Do(instCtx, pol, IsTransient, func(ctx context.Context) error {
		r, err := s.attemptPoint(ctx, req, inst)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err != nil {
		return fail(err)
	}
	sp.Result = res
	return sp
}

// attemptPoint performs one execution attempt of a sweep point: submit
// to the queue (waiting out admission bursts) and await the outcome.
func (s *Server) attemptPoint(ctx context.Context, req *SweepRequest, inst *sweep.Instance) (*Result, error) {
	if err := fault.Hit(PointSweepPoint); err != nil {
		return nil, err
	}
	type outcome struct {
		res *Result
		err error
	}
	resCh := make(chan outcome, 1)
	// Each attempt gets its own span recorder: the point's result carries
	// a per-point timing block (cmd/sweep aggregates these into per-point
	// latency quantiles) and every executed stage feeds the same
	// histograms /v1/solve feeds.
	rec := obs.NewSpanRecorder()
	submitErr := s.submitRetry(ctx, func(jobCtx context.Context) {
		defer func() {
			if r := recover(); r != nil {
				resCh <- outcome{err: internalf("executing sweep point panicked: %v", r)}
				panic(r)
			}
		}()
		models := make([]*multival.Model, len(inst.Components))
		hashes := make([]string, len(inst.Components))
		var err error
		for ci, c := range inst.Components {
			var sm *storedModel
			sm, err = s.famComponent(jobCtx, c, rec)
			if err != nil {
				break
			}
			models[ci], hashes[ci] = sm.m, sm.hash
		}
		if err != nil {
			resCh <- outcome{err: err}
			return
		}
		res, err := s.executeSpec(jobCtx, models, hashes, req.instanceSpec(inst), nil, rec)
		resCh <- outcome{res: res, err: err}
	})
	if submitErr != nil {
		return nil, submitErr
	}
	select {
	case out := <-resCh:
		if out.res != nil {
			out.res.DurationMS = durationMS(rec.Total())
			out.res.Stages = s.recordStages(rec)
		} else {
			s.recordStages(rec)
		}
		return out.res, out.err
	case <-ctx.Done():
		s.recordStages(rec)
		return nil, ctx.Err()
	}
}

// handleSweeps executes one sweep request, streaming per-point SSE events
// when asked.
func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, badRequestf("use POST"))
		return
	}
	t0 := time.Now()
	traceID := traceIDFrom(r)
	w.Header().Set("X-Request-Id", traceID)
	// Admission control for new sweep work: above the high watermark the
	// request is shed with a Retry-After hint before any planning work,
	// the same way /v1/solve submissions are.
	if err := s.queue.Admit(); err != nil {
		s.logRequest(traceID, routeSweep, err, time.Since(t0))
		writeError(w, err)
		return
	}
	var req SweepRequest
	body := http.MaxBytesReader(nil, r.Body, maxModelBytes)
	if err := DecodeJSON(body, &req); err != nil {
		err = badRequestf("decoding request: %v", err)
		s.logRequest(traceID, routeSweep, err, time.Since(t0))
		writeError(w, err)
		return
	}

	d := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		d = time.Duration(req.DeadlineMS) * time.Millisecond
		if s.cfg.MaxDeadline > 0 && d > s.cfg.MaxDeadline {
			d = s.cfg.MaxDeadline
		}
	}
	ctx, cancel := context.WithCancel(r.Context())
	if d > 0 {
		ctx, cancel = context.WithTimeout(r.Context(), d)
	}
	defer cancel()

	// logSweep writes the request's one structured line (and per-route
	// metrics); the rollup identities let log readers find the sweep.
	logSweep := func(resp *SweepResponse, err error) {
		var attrs []slog.Attr
		if resp != nil {
			attrs = append(attrs,
				slog.String("sweep_id", resp.ID),
				slog.Int("grid_points", resp.GridPoints),
				slog.Int("failed", resp.Failed))
		}
		s.logRequest(traceID, routeSweep, err, time.Since(t0), attrs...)
	}

	if !wantsStream(r) {
		resp, err := s.RunSweep(ctx, &req, nil)
		logSweep(resp, err)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, resp)
		return
	}

	// SSE rollup: a "sweep" event first (the ID, so an interrupted client
	// can still resume), one "point" event per completed instance
	// (completion order), then the aggregated "result". Events are
	// emitted from the RunSweep collector goroutine — this handler's
	// goroutine — so writes never interleave.
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
	resp, err := s.runSweep(ctx, &req, sweepEvents{
		onStart: func(id string) { emit("sweep", map[string]string{"sweep_id": id}) },
		onPoint: func(sp SweepPoint) { emit("point", sp) },
	})
	logSweep(resp, err)
	if err != nil {
		code, _ := ErrorCode(err)
		emit("error", ErrorBody{Error: Error{Code: code, Message: err.Error()}})
		return
	}
	emit("result", resp)
}

// handleSweepStatus serves GET /v1/sweeps/{id}: live progress or the
// final (possibly partial) rollup of a tracked sweep.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, badRequestf("use GET"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/sweeps/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, badRequestf("want /v1/sweeps/{id}"))
		return
	}
	run, ok := s.sweeps.get(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: %s", errUnknownSweep, id))
		return
	}
	includeResults := r.URL.Query().Get("results") != "0"
	writeJSON(w, run.status(includeResults))
}

// Families returns the sweep family registry (for CLI listings).
func Families() []*sweep.Family { return sweep.Registered() }

// compile-time assertion that the sweep package's component contract
// stays in terms of the core LTS type.
var _ func() (*lts.LTS, error) = sweep.Component{}.Build
