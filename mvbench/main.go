// Command mvbench is the repository benchmark: four closed-loop workloads
// that drive the Multival flow from outside — through the root multival
// facade, through the serve HTTP API over loopback, and through a layer
// package only where the facade has no entry for that layer: CHP
// translation and process generation, and CTMC extraction. Once evaluate
// has extracted the chain itself, it calls markov's solvers on it directly,
// since the facade's measures would extract it again.
//
// Usage (from the repository root; mvbench/run.sh builds and runs it;
// Linux only, as memory is read from /proc):
//
//	mvbench --workload verify|evaluate|sweep|query --seed N --seconds S --trace 0|1
//
// The benchmark's self-test runs every workload at toy sizes:
// cd mvbench && go test ./...
//
// Each run sets the workload up several times (the set-up time is their
// median), then repeats timed passes for about S seconds and checks every
// pass's outputs. The seed varies rates, grid values and query labels,
// never model sizes. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the lines before it are
// the environment, the metric table and, traced, the per-layer table.
//
// End-to-end metrics (--trace 0; host time over the timed passes only,
// except setup_s). The five timed metrics are each taken per pass and the
// best pass is reported (see best); the median and quartiles over passes
// are printed beside them.
//
//	setup_s         median time to build inputs, start the server and
//	                prime query's cache
//	run_s           wall time of one pass: all verdicts (verify), all
//	                measures (evaluate), the whole sweep sequence on a
//	                fresh server (sweep), one replay batch (query)
//	points_per_s    results completed per second of a pass: verdicts,
//	                measures, grid points, or points answered
//	requests_per_s  client requests completed per second of a pass: HTTP
//	                requests on sweep and query; one pass is one request
//	                on the in-process workloads
//	latency_p50_ms  median request latency of a pass (client side)
//	latency_p99_ms  99th percentile request latency of a pass (query: 4000
//	                requests a pass). On verify and evaluate a pass is the
//	                one request, so both percentiles are the pass time.
//	                The sample counts are printed with the table. Query
//	                runs at GC percent 1600 (see queryGCPercent)
//	alloc_mb        bytes allocated per pass (runtime/metrics heap allocs;
//	                median over passes)
//	peak_rss_mb     peak resident memory of the process during a pass
//	                (median over passes; each pass starts from a collected
//	                heap returned to the OS)
//
// Failed operations over attempted ones (failed_frac) are the JSON's
// "failed" and "attempted" fields; an operation is one verdict, measure,
// point or request, and a wrong output counts as a failure.
//
// The traced run (--trace 1) runs half of its time untraced and half
// traced, records a span around every call into a layer, writes the spans
// to .bench_build/spans/, and reports per pass, for each layer L: L.calls,
// L.busy_s (self time), L.share (busy over the traced run_s), L.alloc_mb,
// L.states_in, L.states_out and L.rounds (highest progress Round per
// call, summed); markov.fallbacks; the serve.* counters; and the tracing
// overhead. On verify and evaluate the layers' self times must cover the
// traced run_s to within 5% (trace.coverage at least 0.95), or the run is
// not correct.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"multival"
)

// workload is one named input set of the benchmark; BENCHMARK.json
// records why each exists.
type workload struct {
	name  string
	setup func(ctx context.Context, c config) (instance, error)
	// served workloads drive the system over HTTP; the others call it in
	// process, and their traces must cover the pass (coverageFloor).
	served bool
}

var workloads = []workload{
	{"verify", setupVerify, false},
	{"evaluate", setupEvaluate, false},
	{"sweep", setupSweep, true},
	{"query", setupQuery, true},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// toy shrinks every workload's models to toy sizes for the
	// benchmark's self-test; the metric set is unchanged.
	toy       bool
	setupReps int    // set-ups per run; setup_s is their median
	spanDir   string // where the traced run writes its spans
}

// instance is a set-up workload. pass runs one timed pass and checks its
// outputs after the timed section.
type instance interface {
	pass(ctx context.Context, tr *tracer) (passResult, error)
	close()
}

// passResult is one pass's measurements and check outcome.
type passResult struct {
	wall      time.Duration // timed section only
	alloc     uint64        // bytes allocated in the timed section
	results   int
	latMS     []float64 // client request latencies; nil: the pass is one request
	attempted int
	failed    int
	serve     *serveSample // served workloads only
	rssMB     float64      // peak resident memory during the pass
	failures  []string
}

// verdict counts one checked operation, keeping the first failures'
// descriptions for the report.
func (r *passResult) verdict(ok bool, what string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 3 {
			r.failures = append(r.failures, fmt.Sprintf(what, args...))
		}
	}
}

// meter times a pass's timed section and counts its allocations.
type meter struct {
	t time.Time
	a uint64
}

func startMeter() meter { return meter{time.Now(), heapAllocs()} }

func (m meter) stop(r *passResult) {
	r.wall = time.Since(m.t)
	r.alloc = heapAllocs() - m.a
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a run's outcome: the JSON result plus the human-readable
// lines printed before it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines []string
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: verify, evaluate, sweep or query")
	flag.Int64Var(&c.seed, "seed", 1, "input seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run (per-layer metrics)")
	flag.Parse()
	c.setupReps = 5
	c.spanDir = filepath.Join(".bench_build", "spans")
	c.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "mvbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if _, ok := lookup(c.workload); !ok {
		fmt.Fprintf(os.Stderr, "mvbench: unknown workload %q\n", c.workload)
		os.Exit(2)
	}
	rep, err := run(context.Background(), c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvbench:", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	if err := rep.print(w); err != nil {
		fmt.Fprintln(os.Stderr, "mvbench:", err)
		os.Exit(1)
	}
	if err := w.Flush(); err != nil {
		os.Exit(1)
	}
}

func (r *report) print(w io.Writer) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// environment describes the host, so figures from different machines are
// not compared.
func environment(c config) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("env nproc=%d GOMAXPROCS=%d go=%s cpu=%q workload=%s seed=%d seconds=%g trace=%v toy=%v",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, c.workload, c.seed, c.seconds, c.trace, c.toy)
}

// run sets the workload up, runs its passes and assembles the report.
func run(ctx context.Context, c config) (*report, error) {
	w, _ := lookup(c.workload)
	rep := &report{Metrics: map[string]metric{}}
	rep.lines = append(rep.lines, environment(c))

	reps := c.setupReps
	if reps < 1 || c.trace {
		reps = 1
	}
	var inst instance
	var setups []float64
	for i := 0; i < reps; i++ {
		debug.FreeOSMemory() // each set-up starts from a collected heap, like each pass
		t0 := time.Now()
		in, err := w.setup(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < reps-1 {
			in.close()
		} else {
			inst = in
		}
	}
	defer inst.close()

	if !c.trace {
		passes, err := runPasses(ctx, inst, newTracer(false), c.seconds)
		if err != nil {
			return nil, err
		}
		endToEnd(rep, setups, passes)
		return rep, nil
	}

	untraced, err := runPasses(ctx, inst, newTracer(false), c.seconds/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	fb0 := multival.SolverFallbackStats()
	traced, err := runPasses(ctx, inst, tr, c.seconds/2)
	if err != nil {
		return nil, err
	}
	fb1 := multival.SolverFallbackStats()
	fallbacks := float64(fb1.GSToJacobi-fb0.GSToJacobi+fb1.BiCGSTABToJacobi-fb0.BiCGSTABToJacobi) / float64(len(traced))
	perLayer(rep, w.served, untraced, traced, tr, fallbacks)
	path := filepath.Join(c.spanDir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
	if err := tr.dump(path, map[string]string{"env": environment(c)}); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.lines = append(rep.lines, fmt.Sprintf("spans: %d written to %s", len(tr.spans), path))
	return rep, nil
}

// runPasses runs passes until the next one would end after budget seconds
// (at least one), counting each pass's check outcome.
func runPasses(ctx context.Context, inst instance, tr *tracer, budget float64) ([]passResult, error) {
	var out []passResult
	start := time.Now()
	for {
		// Every pass starts from a collected heap returned to the OS, and
		// measures its own peak resident memory.
		debug.FreeOSMemory()
		resetPeakRSS()
		p, err := inst.pass(ctx, tr)
		if err != nil {
			return nil, err
		}
		p.rssMB = peakRSSMB()
		out = append(out, p)
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(len(out)) > budget {
			return out, nil
		}
	}
}

// totals sums the outcome counts of the passes and of the run-level checks
// into the report.
func totals(rep *report, passes []passResult, checks ...passResult) {
	var failures []string
	for _, p := range append(append([]passResult(nil), passes...), checks...) {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		failures = append(failures, p.failures...)
	}
	for i, f := range failures {
		if i == 5 {
			break
		}
		rep.lines = append(rep.lines, "FAILED: "+f)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	rep.lines = append(rep.lines, fmt.Sprintf("passes=%d attempted=%d failed=%d failed_frac=%g",
		len(passes), rep.Attempted, rep.Failed, float64(rep.Failed)/math.Max(1, float64(rep.Attempted))))
}

func endToEnd(rep *report, setups []float64, passes []passResult) {
	totals(rep, passes)
	var walls, allocs, rss, points, reqs, p50, p99 []float64
	requests := 0
	for _, p := range passes {
		w := p.wall.Seconds()
		// Where a pass is itself the one request (verify, evaluate), its
		// latency sample is the pass time.
		lat := p.latMS
		if lat == nil {
			lat = []float64{w * 1e3}
		}
		walls = append(walls, w)
		allocs = append(allocs, float64(p.alloc)/1e6)
		rss = append(rss, p.rssMB)
		points = append(points, float64(p.results)/w)
		reqs = append(reqs, float64(len(lat))/w)
		p50 = append(p50, quantile(lat, 0.5))
		p99 = append(p99, quantile(lat, 0.99))
		requests += len(lat)
	}
	rep.lines = append(rep.lines, fmt.Sprintf("samples: %d set-ups, %d passes, %d requests (%d a pass)", len(setups), len(passes), requests, requests/len(passes)))
	rep.lines = append(rep.lines, fmt.Sprintf("set-up s: %.4g", setups))
	rep.set("setup_s", median(setups), "s")
	rep.set("alloc_mb", median(allocs), "MB")
	rep.set("peak_rss_mb", median(rss), "MB")
	timed := func(name string, xs []float64, unit string, lower bool) {
		rep.set(name, best(xs, lower), unit)
		rep.lines = append(rep.lines, fmt.Sprintf("pass %s: best %.6g, median %.6g, lower-upper quartile %.6g-%.6g",
			name, best(xs, lower), median(xs), quantile(xs, 0.25), quantile(xs, 0.75)))
	}
	timed("run_s", walls, "s", true)
	timed("points_per_s", points, "1/s", false)
	timed("requests_per_s", reqs, "1/s", false)
	timed("latency_p50_ms", p50, "ms", true)
	timed("latency_p99_ms", p99, "ms", true)
	rep.lines = append(rep.lines, metricTable(rep.Metrics)...)
}

// coverageFloor is the share of the traced run_s that the layers' self
// times must cover on the in-process workloads; below it the trace misses
// a call into the system, and the run is not correct.
const coverageFloor = 0.95

func perLayer(rep *report, served bool, untraced, traced []passResult, tr *tracer, fallbacks float64) {
	n := float64(len(traced))
	var walls, uwalls []float64
	var wall float64
	for _, p := range traced {
		walls = append(walls, p.wall.Seconds())
		wall += p.wall.Seconds()
	}
	for _, p := range untraced {
		uwalls = append(uwalls, p.wall.Seconds())
	}
	stats := tr.selfTimes()
	var busy float64
	for _, l := range layers {
		st := stats[l]
		if st == nil {
			st = &layerStat{}
		}
		b := float64(st.busyNS) / 1e9
		busy += b
		rep.set(l+".calls", float64(st.calls)/n, "count")
		rep.set(l+".busy_s", b/n, "s")
		rep.set(l+".share", b/wall, "ratio")
		rep.set(l+".alloc_mb", float64(st.allocB)/1e6/n, "MB")
		rep.set(l+".states_in", float64(st.in)/n, "count")
		rep.set(l+".states_out", float64(st.out)/n, "count")
		rep.set(l+".rounds", float64(st.rounds)/n, "count")
	}
	rep.set("markov.fallbacks", fallbacks, "count")
	serveMetrics(rep, traced)
	tRun, uRun := median(walls), median(uwalls)
	rep.set("trace.run_s", tRun, "s")
	rep.set("trace.untraced_run_s", uRun, "s")
	rep.set("trace.overhead_s", tRun-uRun, "s")
	rep.set("trace.coverage", busy/wall, "ratio")
	var coverage passResult
	if !served {
		coverage.verdict(busy/wall >= coverageFloor, "trace.coverage %.4f below %g", busy/wall, coverageFloor)
	}
	totals(rep, append(append([]passResult(nil), untraced...), traced...), coverage)

	rep.lines = append(rep.lines, fmt.Sprintf("self time per pass (%d traced passes, traced run_s %.4f s):", len(traced), tRun))
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].busyNS > stats[names[j]].busyNS })
	rep.lines = append(rep.lines, fmt.Sprintf("  %-18s %10s %10s %8s %12s", "span", "calls", "busy_s", "share", "alloc_mb"))
	for _, name := range names {
		st := stats[name]
		b := float64(st.busyNS) / 1e9
		rep.lines = append(rep.lines, fmt.Sprintf("  %-18s %10.1f %10.4f %8.4f %12.1f",
			name, float64(st.calls)/n, b/n, b/wall, float64(st.allocB)/1e6/n))
	}
	rep.lines = append(rep.lines, fmt.Sprintf("tracing overhead: traced run_s %.4f s - untraced run_s %.4f s = %+.4f s (%d untraced passes)",
		tRun, uRun, tRun-uRun, len(untraced)))
	rep.lines = append(rep.lines, metricTable(rep.Metrics)...)
}

func metricTable(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("%-30s %16s  %s", "metric", "value", "unit")}
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("%-30s %16.6g  %s", n, ms[n].Value, ms[n].Unit))
	}
	return lines
}

// best returns the best pass's value: the least where lower is better,
// else the greatest. Other tenants of a shared host only ever slow a pass
// down, in bursts of seconds to minutes, so the best pass is the steadiest
// estimate of the program's own speed; the median over passes moves with
// the host's load.
func best(xs []float64, lower bool) float64 {
	if lower {
		return quantile(xs, 0)
	}
	return quantile(xs, 1)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// resetPeakRSS resets the process's peak resident set size to its current
// one (Linux clear_refs 5), so the next peakRSSMB covers only what follows.
// Without it, peaks accumulate over the process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see above
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
