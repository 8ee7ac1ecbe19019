package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"multival"
	"multival/internal/lts"
	"multival/internal/mcl"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestToyWorkloads runs every workload at toy sizes, untraced and traced,
// and checks that each emits exactly the metrics BENCHMARK.json names,
// with their units, and that every output check passes.
func TestToyWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(specNames, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", names, specNames)
	}
	units := func(ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	want := map[bool]map[string]string{false: units(spec.EndToEnd), true: units(spec.PerLayer)}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			c := config{workload: w.name, seed: 7, seconds: 0.3, trace: traced, toy: true, setupReps: 2, spanDir: t.TempDir()}
			rep, err := run(context.Background(), c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			var got []string
			for name, m := range rep.Metrics {
				got = append(got, name)
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q", w.name, name)
				}
				if u, ok := want[traced][name]; !ok || u != m.Unit || m.Unit == "" {
					t.Errorf("%s trace=%v: metric %q unit %q, BENCHMARK.json has %q (listed %v)", w.name, traced, name, m.Unit, u, ok)
				}
			}
			if len(got) != len(want[traced]) {
				sort.Strings(got)
				t.Errorf("%s trace=%v: %d metrics %v, BENCHMARK.json lists %d", w.name, traced, len(got), got, len(want[traced]))
			}
			joined := strings.Join(rep.lines, "\n")
			for _, s := range []string{"nproc=", "GOMAXPROCS=", "go=", "cpu=", "seed=", "failed_frac="} {
				if !strings.Contains(joined, s) {
					t.Errorf("%s trace=%v: report lacks %q", w.name, traced, s)
				}
			}
			if traced && !strings.Contains(joined, "tracing overhead:") {
				t.Errorf("%s: traced report lacks the tracing-overhead line", w.name)
			}
			if cov := rep.Metrics["trace.coverage"].Value; traced && !w.served && cov < coverageFloor {
				t.Errorf("%s: trace.coverage %.4f below %g", w.name, cov, coverageFloor)
			}
		}
	}
}

// TestSelfTime checks the self-time rule: a span's duration minus the
// union of its children's intervals.
func TestSelfTime(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{Op: 1, ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{Op: 1, ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},
		{Op: 1, ID: 4, Parent: 1, Name: "a", StartNS: 80, EndNS: 90},
	}
	st := tr.selfTimes()
	if got := st["root"].busyNS; got != 40 {
		t.Errorf("root self time %d, want 40", got)
	}
	if got := st["a"].busyNS; got != 40 || st["a"].calls != 2 {
		t.Errorf("a: self time %d over %d calls, want 40 over 2", got, st["a"].calls)
	}
}

// TestOracle checks the seeded-query oracle against the mcl evaluator on
// a small model with a deadlock.
func TestOracle(t *testing.T) {
	l := lts.New("oracle")
	l.AddStates(5)
	l.AddTransition(0, "a", 1)
	l.AddTransition(1, "b", 2)
	l.AddTransition(2, "a", 1)
	l.AddTransition(0, "c", 3)
	l.AddTransition(4, "d", 4) // unreachable
	l.SetInitial(0)
	g := graphOf(l)
	m := multival.NewEngine().FromLTS(l)
	for _, tc := range []struct {
		query string
		got   bool
	}{
		{"reachable:b", g.reachableAction("b")},
		{"reachable:d", g.reachableAction("d")},
		{"inevitable:b", g.inevitable("b")[g.init]},
		{"inevitable:a", g.inevitable("a")[g.init]},
		{"response:a->b", g.response("a", "b")},
		{"response:c->b", g.response("c", "b")},
	} {
		f, err := mcl.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Check(f.String())
		if err != nil {
			t.Fatal(err)
		}
		if res.Holds != tc.got {
			t.Errorf("%s: oracle %v, mcl %v", tc.query, tc.got, res.Holds)
		}
	}
}

// TestCoverageFloor checks that a trace covering too little of an
// in-process pass makes the run incorrect, and that served runs are exempt.
func TestCoverageFloor(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{{Op: 1, ID: 1, Name: "process", StartNS: 0, EndNS: 50}}
	p := passResult{wall: 100, attempted: 1}
	for _, served := range []bool{false, true} {
		rep := &report{Metrics: map[string]metric{}}
		perLayer(rep, served, []passResult{p}, []passResult{p}, tr, 0)
		if rep.Correct != served {
			t.Errorf("served=%v: coverage %.2f, correct=%v", served, rep.Metrics["trace.coverage"].Value, rep.Correct)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median %g, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max %g, want 4", got)
	}
	if lo, hi := best(xs, true), best(xs, false); lo != 1 || hi != 4 {
		t.Errorf("best %g (lower is better), %g (higher is better), want 1, 4", lo, hi)
	}
}
