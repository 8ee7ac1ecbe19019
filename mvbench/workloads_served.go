package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"

	"multival"
	"multival/internal/aut"
	"multival/internal/faust"
	"multival/internal/serve"
	"multival/internal/sweep"
)

// The sweep workload posts a seeded sequence of /v1/sweeps to a fresh
// server per pass (one client), so every point is new to the server. The
// query workload replays seeded warm requests against a server primed at
// set-up (two clients): three /v1/solve by model hash to one /v1/sweeps.

// roundRate keeps seeded values short in request bodies and reports.
func roundRate(x float64) float64 { return math.Round(x*1000) / 1000 }

// draw returns n distinct seeded values in [lo, hi).
func draw(rng *rand.Rand, n int, lo, hi float64) []any {
	out := make([]any, 0, n)
	seen := map[float64]bool{}
	for len(out) < n {
		v := roundRate(lo + (hi-lo)*rng.Float64())
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// sweepSequence returns the sweep workload's requests: three rounds over
// the xstream, fame and chp families with fixed structural axes and
// seeded rate and measure axes (52 points a round).
func sweepSequence(rng *rand.Rand, toy bool) []serve.SweepRequest {
	rounds := 3
	if toy {
		rounds = 1
	}
	var out []serve.SweepRequest
	for r := 0; r < rounds; r++ {
		at := func() []any { return append([]any{0.0}, draw(rng, 1, 0.5, 5)...) }
		xs := serve.SweepRequest{
			Family: "xstream",
			Params: map[string]any{"mu": draw(rng, 1, 1, 3)[0]},
			Grid: map[string][]any{
				"stages": {3, 4}, "capacity": {4, 5},
				"lambda": draw(rng, 3, 0.5, 3), "at": at(),
			},
		}
		fm := serve.SweepRequest{
			Family: "fame",
			Params: map[string]any{"nodes": 8, "chunks": 2, "erlang_k": 3},
			Grid: map[string][]any{
				"topology": {"ring", "mesh"}, "protocol": {"msi", "mesi"},
				"tbase": draw(rng, 2, 0.5, 2), "at": at(),
			},
		}
		ch := serve.SweepRequest{
			Family: "chp",
			Params: map[string]any{"inputs": 2, "rate_out": draw(rng, 1, 1.5, 3)[0]},
			Grid: map[string][]any{
				"ports": {2, 3}, "rate_in": draw(rng, 3, 0.3, 1.5), "at": at(),
			},
		}
		if toy {
			xs.Grid["stages"], xs.Grid["capacity"] = []any{1}, []any{2}
			fm.Params = map[string]any{"nodes": 2}
			fm.Grid["topology"], fm.Grid["protocol"] = []any{"ring"}, []any{"msi"}
			ch.Grid["ports"] = []any{2}
		}
		out = append(out, xs, fm, ch)
	}
	return out
}

type sweepInst struct {
	reqs   [][]byte
	specs  []serve.SweepRequest
	sample [][2]int // (sweep, point) pairs re-run through Pipeline
}

func setupSweep(ctx context.Context, c config) (instance, error) {
	rng := rand.New(rand.NewSource(c.seed))
	w := &sweepInst{specs: sweepSequence(rng, c.toy)}
	for i, sp := range w.specs {
		b, err := json.Marshal(sp)
		if err != nil {
			return nil, err
		}
		w.reqs = append(w.reqs, b)
		pts, err := expand(sp)
		if err != nil {
			return nil, err
		}
		w.sample = append(w.sample, [2]int{i, rng.Intn(len(pts))})
	}
	// Warm the server code paths with the first sweep on a server of its
	// own, so the passes' servers still see only new points.
	s, err := startServer(1)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if _, _, _, err := s.post(ctx, "/v1/sweeps", w.reqs[0]); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (w *sweepInst) close() {}

func expand(sp serve.SweepRequest) ([]sweep.Point, error) {
	fam, ok := sweep.Lookup(sp.Family)
	if !ok {
		return nil, fmt.Errorf("unknown family %q", sp.Family)
	}
	return sweep.Expand(fam, sp.Params, sp.Grid)
}

func (w *sweepInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var res passResult
	s, err := startServer(1)
	if err != nil {
		return res, err
	}
	defer s.close()
	before, err := s.stats(ctx)
	if err != nil {
		return res, err
	}
	xs := make([]exchange, len(w.reqs))
	m := startMeter()
	for i, b := range w.reqs {
		x := exchange{kind: i}
		x.body, x.t0, x.t1, x.err = s.post(ctx, "/v1/sweeps", b)
		tr.request(x.t0, x.t1)
		xs[i] = x
	}
	m.stop(&res)
	after, err := s.stats(ctx)
	if err != nil {
		return res, err
	}
	if tr.on {
		res.serve = sampleOf(xs, before, after)
	}

	// Checks: every point completes, and a seeded sample of points equals
	// the same instance run through Pipeline.
	replies := make([]reply, len(xs))
	for i, x := range xs {
		res.latMS = append(res.latMS, x.latMS())
		err := x.err
		if err == nil {
			err = json.Unmarshal(x.body, &replies[i])
		}
		if err != nil {
			res.verdict(false, "sweep %d: %v", i, err)
			continue
		}
		for _, p := range replies[i].Results {
			res.verdict(p.Error == nil && p.Result != nil, "sweep %d point %v: %+v", i, p.Point, p.Error)
		}
		res.verdict(len(replies[i].Results) == replies[i].GridPoints, "sweep %d: %d results for %d points", i, len(replies[i].Results), replies[i].GridPoints)
		res.results += replies[i].Completed
	}
	for _, sm := range w.sample {
		ok, err := w.matchesPipeline(ctx, sm, replies[sm[0]])
		res.verdict(err == nil && ok, "sweep %d point %d differs from Pipeline (err %v)", sm[0], sm[1], err)
	}
	return res, nil
}

// matchesPipeline re-runs one sweep point through the facade Pipeline and
// compares its measures with the server's.
func (w *sweepInst) matchesPipeline(ctx context.Context, sm [2]int, r reply) (bool, error) {
	sp := w.specs[sm[0]]
	pts, err := expand(sp)
	if err != nil {
		return false, err
	}
	if sm[1] >= len(r.Results) || r.Results[sm[1]].Result == nil {
		return false, nil
	}
	got := r.Results[sm[1]].Result
	fam, _ := sweep.Lookup(sp.Family)
	inst, err := fam.Build(pts[sm[1]].Values)
	if err != nil {
		return false, err
	}
	var opts []multival.Option
	if inst.UniformScheduler {
		opts = append(opts, multival.WithScheduler(multival.UniformScheduler{}))
	}
	eng := multival.NewEngine(opts...)
	var models []*multival.Model
	for _, c := range inst.Components {
		l, err := c.Build()
		if err != nil {
			return false, err
		}
		models = append(models, eng.FromLTS(l))
	}
	p := eng.Compose(models...).Sync(inst.Sync...).Hide(inst.Hide...)
	if inst.Minimize != "" {
		rel, err := multival.ParseRelation(inst.Minimize)
		if err != nil {
			return false, err
		}
		p = p.Minimize(rel)
	}
	pm, err := p.DecorateGateRates(inst.Rates, inst.Markers...).Lump().Perf(ctx)
	if err != nil {
		return false, err
	}
	var ms *multival.Measures
	if inst.At > 0 {
		ms, err = pm.Transient(ctx, inst.At)
	} else {
		ms, err = pm.SteadyState(ctx)
	}
	if err != nil {
		return false, err
	}
	ok := sameValues(ms.Throughputs, got.Throughputs)
	for _, lab := range inst.MeanTimeTo {
		t, err := pm.MeanTimeTo(ctx, lab)
		if err != nil {
			return false, err
		}
		ok = ok && close9(t, got.MeanTimes[lab])
	}
	return ok, nil
}

func sameValues(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !close9(v, w) {
			return false
		}
	}
	return true
}

// close9 compares two measures to 1e-9, relative above 1.
func close9(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }

// queryClients is the number of concurrent query clients, each with its
// own connection.
const queryClients = 2

// queryGCPercent is the GC percent (GOGC) the query workload runs at, from
// set-up until close. Its server and clients share one process whose live
// heap is a few MB (a handful of small cached artifacts), so at the default
// of 100 a collection starts every ~5 ms and the slowest 1% of requests are
// those that overlap one: the p99 then tracked the host's memory bandwidth
// rather than wire, queue and cache, and spread 0.17 across runs of the same
// code (0.06-0.09 for p50 and run_s). At 1600 collections start once or
// twice a pass; alloc_mb still counts every allocation.
const queryGCPercent = 1600

type qreq struct {
	path   string
	body   []byte
	points int
	want   []byte // masked set-up response
}

type queryInst struct {
	s         *server
	reqs      []qreq
	solves    int // reqs[:solves] are /v1/solve, the rest /v1/sweeps
	perClient int
	seed      int64
	passes    int
	gcPercent int // the process's GC percent before set-up, restored on close
}

func setupQuery(ctx context.Context, c config) (instance, error) {
	gc := debug.SetGCPercent(queryGCPercent)
	q, err := newQuery(ctx, c)
	if err != nil {
		debug.SetGCPercent(gc)
		return nil, err
	}
	q.gcPercent = gc
	return q, nil
}

func newQuery(ctx context.Context, c config) (*queryInst, error) {
	rng := rand.New(rand.NewSource(c.seed))
	s, err := startServer(queryClients)
	if err != nil {
		return nil, err
	}
	q := &queryInst{s: s, perClient: 2000, seed: c.seed}
	if c.toy {
		q.perClient = 50
	}
	fork, err := faust.ForkImpl(2, faust.ForkWaitBoth)
	if err != nil {
		s.close()
		return nil, err
	}
	body, _, _, err := s.post(ctx, "/v1/models", []byte(aut.WriteString(fork)))
	if err != nil {
		s.close()
		return nil, err
	}
	var info serve.ModelInfo
	if err := json.Unmarshal(body, &info); err != nil {
		s.close()
		return nil, err
	}
	// Six seeded rate pairs, each solved steady and transient.
	rates := draw(rng, 12, 0.5, 3)
	for i := 0; i < 6; i++ {
		for _, at := range []float64{0, roundRate(0.5 + 4*rng.Float64())} {
			req := serve.SolveRequest{
				ModelHash:  info.Hash,
				Rates:      map[string]float64{"b": rates[2*i].(float64), "c": rates[2*i+1].(float64)},
				Markers:    []string{"b", "c"},
				MeanTimeTo: []string{"b !0"},
			}
			if at > 0 {
				req.At = &at
			}
			b, err := json.Marshal(req)
			if err != nil {
				s.close()
				return nil, err
			}
			q.reqs = append(q.reqs, qreq{path: "/v1/solve", body: b, points: 1})
		}
	}
	q.solves = len(q.reqs)
	sw := serve.SweepRequest{
		Family: "xstream",
		Params: map[string]any{"stages": 2, "mu": draw(rng, 1, 1, 3)[0]},
		Grid: map[string][]any{
			"capacity": {2, 3}, "lambda": draw(rng, 2, 0.5, 3),
			"at": {0.0, roundRate(0.5 + 4*rng.Float64())},
		},
	}
	b, err := json.Marshal(sw)
	if err != nil {
		s.close()
		return nil, err
	}
	q.reqs = append(q.reqs, qreq{path: "/v1/sweeps", body: b, points: 8})
	// Prime the cache: every request once, keeping its masked response;
	// then replay the set a few times to warm the request path.
	for round := 0; round < 8; round++ {
		for i := range q.reqs {
			body, _, _, err := s.post(ctx, q.reqs[i].path, q.reqs[i].body)
			if err == nil && round == 0 {
				q.reqs[i].want, err = masked(body)
			}
			if err != nil {
				s.close()
				return nil, fmt.Errorf("priming %s: %w", q.reqs[i].path, err)
			}
		}
	}
	return q, nil
}

func (q *queryInst) close() {
	q.s.close()
	debug.SetGCPercent(q.gcPercent)
}

func (q *queryInst) pass(ctx context.Context, tr *tracer) (passResult, error) {
	var res passResult
	q.passes++
	before, err := q.s.stats(ctx)
	if err != nil {
		return res, err
	}
	xs := make([][]exchange, queryClients)
	var wg sync.WaitGroup
	m := startMeter()
	for c := 0; c < queryClients; c++ {
		rng := rand.New(rand.NewSource(q.seed*1000 + int64(q.passes*queryClients+c)))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < q.perClient; i++ {
				// Three solves to one sweep.
				k := q.solves + rng.Intn(len(q.reqs)-q.solves)
				if rng.Intn(4) != 0 {
					k = rng.Intn(q.solves)
				}
				x := exchange{kind: k}
				x.body, x.t0, x.t1, x.err = q.s.post(ctx, q.reqs[k].path, q.reqs[k].body)
				tr.request(x.t0, x.t1)
				xs[c] = append(xs[c], x)
			}
		}(c)
	}
	wg.Wait()
	m.stop(&res)
	after, err := q.s.stats(ctx)
	if err != nil {
		return res, err
	}
	var all []exchange
	for _, cx := range xs {
		all = append(all, cx...)
	}
	if tr.on {
		res.serve = sampleOf(all, before, after)
	}

	// Checks: every response equals its set-up response once telemetry is
	// masked, every solve is a cache hit, and nothing was built.
	for _, x := range all {
		res.latMS = append(res.latMS, x.latMS())
		err := x.err
		if err == nil {
			var got []byte
			if got, err = masked(x.body); err == nil && !bytes.Equal(got, q.reqs[x.kind].want) {
				err = fmt.Errorf("response %s differs from the set-up response %s", got, q.reqs[x.kind].want)
			}
		}
		if err == nil && x.kind < q.solves {
			var r reply
			if err = json.Unmarshal(x.body, &r); err == nil && !r.CacheHit {
				err = fmt.Errorf("not a cache hit")
			}
		}
		res.verdict(err == nil, "%s request %d: %v", q.reqs[x.kind].path, x.kind, err)
		if err == nil {
			res.results += q.reqs[x.kind].points
		}
	}
	res.verdict(after.Builds == before.Builds, "builds moved: %+v -> %+v", before.Builds, after.Builds)
	return res, nil
}
