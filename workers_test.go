package multival

import (
	"math"
	"sort"
	"testing"

	"multival/internal/sweep"
)

// workerOutcome is every measure one sweep instance yields, flattened to
// bit patterns so two runs compare exactly.
type workerOutcome struct {
	steady, transient []uint64
	stateOf           []int
	scalars           map[string]uint64
}

// bitsOf flattens a vector to its IEEE-754 bit patterns.
func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// solveInstance runs one sweep instance through the pipeline under the
// given worker count: steady state via Pipeline.Solve, then the
// transient distribution, first-passage times and throughput bounds on
// the performance model.
func solveInstance(t *testing.T, inst *sweep.Instance, workers int) workerOutcome {
	t.Helper()
	ctx := ctxBg()
	opts := []Option{WithWorkers(workers)}
	if inst.UniformScheduler {
		opts = append(opts, WithScheduler(UniformScheduler{}))
	}
	eng := NewEngine(opts...)
	var models []*Model
	for _, comp := range inst.Components {
		l, err := comp.Build()
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, eng.FromLTS(l))
	}
	p := eng.Compose(models...).Sync(inst.Sync...).Hide(inst.Hide...)
	if inst.Minimize != "" {
		rel, err := ParseRelation(inst.Minimize)
		if err != nil {
			t.Fatal(err)
		}
		p = p.Minimize(rel)
	}
	p = p.DecorateGateRates(inst.Rates, inst.Markers...).Lump()

	ms, err := p.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := workerOutcome{steady: bitsOf(ms.Pi), stateOf: ms.StateOf, scalars: map[string]uint64{}}
	for lab, v := range ms.Throughputs {
		out.scalars["throughput "+lab] = math.Float64bits(v)
	}
	pm, err := p.Perf(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := pm.Transient(ctx, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	out.transient = bitsOf(tr.Pi)
	for _, lab := range inst.MeanTimeTo {
		mt, err := pm.MeanTimeTo(ctx, lab)
		if err != nil {
			t.Fatal(err)
		}
		out.scalars["mean "+lab] = math.Float64bits(mt)
	}
	for lab := range ms.Throughputs {
		lo, hi, err := pm.ThroughputBounds(ctx, lab)
		if err != nil {
			t.Fatal(err)
		}
		out.scalars["bounds-lo "+lab] = math.Float64bits(lo)
		out.scalars["bounds-hi "+lab] = math.Float64bits(hi)
	}
	return out
}

// TestWorkerCountNeverChangesMeasures: Pipeline.Solve, Transient,
// MeanTimeTo and ThroughputBounds return bit-identical results under
// WithWorkers(0), (1) and (4) on the xstream, fame and chp sweep
// families. The worker count shards refinement, generation and the
// solver kernels; it must never change a measure.
func TestWorkerCountNeverChangesMeasures(t *testing.T) {
	grids := map[string]map[string][]any{
		"xstream": {"stages": {1, 3}, "capacity": {2, 4}},
		"fame":    {"topology": {"ring", "mesh"}, "protocol": {"msi", "mesi"}},
		"chp":     {"ports": {2, 3}},
	}
	for _, name := range []string{"xstream", "fame", "chp"} {
		fam, ok := sweep.Lookup(name)
		if !ok {
			t.Fatalf("family %q not registered", name)
		}
		points, err := sweep.Expand(fam, nil, grids[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range points {
			inst, err := fam.Build(pt.Values)
			if err != nil {
				t.Fatal(err)
			}
			ref := solveInstance(t, inst, 0)
			for _, workers := range []int{1, 4} {
				got := solveInstance(t, inst, workers)
				where := func(what string) {
					t.Fatalf("%s %v: workers %d changed the %s", name, pt.Coord, workers, what)
				}
				if !equalSlices(ref.steady, got.steady) || !equalSlices(ref.stateOf, got.stateOf) {
					where("steady state")
				}
				if !equalSlices(ref.transient, got.transient) {
					where("transient distribution")
				}
				keys := make([]string, 0, len(ref.scalars))
				for k := range ref.scalars {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if len(got.scalars) != len(keys) {
					where("measure set")
				}
				for _, k := range keys {
					if got.scalars[k] != ref.scalars[k] {
						where(k)
					}
				}
			}
		}
	}
}

func equalSlices[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
