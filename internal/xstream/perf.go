package xstream

import (
	"context"
	"fmt"
	"math"

	"multival/internal/imc"
	"multival/internal/lts"
)

// PerfConfig parameterizes the performance model of one xSTream network
// queue: a counting abstraction (data values are irrelevant for occupancy
// and throughput) decorated with exponential arrival and service rates —
// exactly the M/M/1/K model the credited queue induces when credits are
// returned immediately.
type PerfConfig struct {
	Capacity    int
	ArrivalRate float64 // producer push rate when a slot is free
	ServiceRate float64 // consumer pop rate when data is available
}

func (c PerfConfig) validate() error {
	if c.Capacity < 1 {
		return fmt.Errorf("xstream: capacity %d < 1", c.Capacity)
	}
	if c.ArrivalRate <= 0 || c.ServiceRate <= 0 {
		return fmt.Errorf("xstream: rates must be positive (%v, %v)", c.ArrivalRate, c.ServiceRate)
	}
	return nil
}

// CountingModel builds the functional counting LTS of the queue: states
// are occupancy levels with push/pop transitions.
func CountingModel(capacity int) *lts.LTS {
	l := lts.New(fmt.Sprintf("xstream-count-%d", capacity))
	l.AddStates(capacity + 1)
	for i := 0; i < capacity; i++ {
		l.AddTransition(lts.State(i), "push", lts.State(i+1))
		l.AddTransition(lts.State(i+1), "pop", lts.State(i))
	}
	l.SetInitial(0)
	return l
}

// PerfResult reports the steady-state performance measures the paper
// says ST explored for xSTream: latency, throughput, and queue occupancy.
type PerfResult struct {
	Config PerfConfig
	// Occupancy[i] is the steady-state probability of i buffered items.
	Occupancy []float64
	// MeanOccupancy is the expected number of buffered items.
	MeanOccupancy float64
	// Throughput is the steady-state pop rate (items per time unit).
	Throughput float64
	// MeanLatency is the expected time an item spends in the queue
	// (Little's law: MeanOccupancy / Throughput).
	MeanLatency float64
	// BlockingProbability is the probability the queue is full.
	BlockingProbability float64
	// States is the size of the solved CTMC.
	States int
}

// Evaluate runs the full performance flow on the counting model: decorate
// push/pop with exponential delays, transform to a CTMC, and compute the
// steady-state measures. CTMC extraction observes ctx.
func Evaluate(ctx context.Context, cfg PerfConfig) (*PerfResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := CountingModel(cfg.Capacity)
	m, err := imc.DecorateRates(l, map[string]float64{
		"push": cfg.ArrivalRate,
		"pop":  cfg.ServiceRate,
	})
	if err != nil {
		return nil, err
	}
	res, err := m.ToCTMCCtx(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	pi, err := res.SteadyState()
	if err != nil {
		return nil, err
	}
	out := &PerfResult{
		Config:    cfg,
		Occupancy: make([]float64, cfg.Capacity+1),
		States:    res.Chain.NumStates(),
	}
	for ci, p := range pi {
		occ := int(res.StateOf[ci]) // counting model: state index == occupancy
		out.Occupancy[occ] = p
		out.MeanOccupancy += float64(occ) * p
	}
	out.BlockingProbability = out.Occupancy[cfg.Capacity]
	// Effective throughput: service happens at rate mu whenever the
	// queue is non-empty.
	out.Throughput = cfg.ServiceRate * (1 - out.Occupancy[0])
	if out.Throughput > 0 {
		out.MeanLatency = out.MeanOccupancy / out.Throughput
	} else {
		out.MeanLatency = math.Inf(1)
	}
	return out, nil
}

// AnalyticOccupancy returns the closed-form M/M/1/K occupancy
// distribution, used to validate the formal flow.
func AnalyticOccupancy(cfg PerfConfig) []float64 {
	rho := cfg.ArrivalRate / cfg.ServiceRate
	pi := make([]float64, cfg.Capacity+1)
	total := 0.0
	for i := range pi {
		pi[i] = math.Pow(rho, float64(i))
		total += pi[i]
	}
	for i := range pi {
		pi[i] /= total
	}
	return pi
}

// StageModel builds the counting LTS of one tandem stage with explicit
// input/output gate names, so pipelines and parameter sweeps can compose
// stages by gate synchronization (stage i uses gates h<i> and h<i+1>).
func StageModel(capacity int, in, out string) (*lts.LTS, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("xstream: capacity %d < 1", capacity)
	}
	if in == "" || out == "" || in == out {
		return nil, fmt.Errorf("xstream: stage gates must be non-empty and distinct (%q, %q)", in, out)
	}
	l := lts.New(fmt.Sprintf("xstream-stage-%d-%s-%s", capacity, in, out))
	l.AddStates(capacity + 1)
	for i := 0; i < capacity; i++ {
		l.AddTransition(lts.State(i), in, lts.State(i+1))
		l.AddTransition(lts.State(i+1), out, lts.State(i))
	}
	l.SetInitial(0)
	return l, nil
}

// StageGate names the handoff gate between stages i-1 and i of a tandem.
func StageGate(i int) string { return fmt.Sprintf("h%d", i) }

// PipelinePerf evaluates a tandem of n queues with handoff rate mu
// between stages and arrival rate lambda, by composing counting IMCs and
// solving the product CTMC. The Markovian product grows as (cap+1)^n,
// demonstrating why the paper's flow lumps after each composition step.
// Lumping and CTMC extraction observe ctx.
func PipelinePerf(ctx context.Context, n, capacity int, lambda, mu float64) (thr float64, states int, err error) {
	if n < 1 {
		return 0, 0, fmt.Errorf("xstream: need at least one stage")
	}
	stage := func(in, out string) (*imc.IMC, error) {
		l, err := StageModel(capacity, in, out)
		if err != nil {
			return nil, err
		}
		return imc.FromLTS(l), nil
	}
	gate := StageGate

	cur, err := stage(gate(0), gate(1))
	if err != nil {
		return 0, 0, err
	}
	for i := 1; i < n; i++ {
		next, err := stage(gate(i), gate(i+1))
		if err != nil {
			return 0, 0, err
		}
		cur, err = imc.Compose(cur, next, []string{gate(i)}, 0)
		if err != nil {
			return 0, 0, err
		}
	}
	// Decorate: arrivals and internal handoffs become plain rates; the
	// final departure becomes a rate plus a visible "depart" marker so
	// its throughput stays measurable on the CTMC.
	dec, err := cur.ReplaceLabelByRate(gate(0), lambda)
	if err != nil {
		return 0, 0, err
	}
	for i := 1; i < n; i++ {
		dec, err = dec.ReplaceLabelByRate(gate(i), mu)
		if err != nil {
			return 0, 0, err
		}
	}
	dec, err = dec.ReplaceLabelByRateWithMarker(gate(n), mu, "depart")
	if err != nil {
		return 0, 0, err
	}
	lumped, _, err := dec.LumpCtx(ctx, nil)
	if err != nil {
		return 0, 0, err
	}
	res, err := lumped.ToCTMCCtx(ctx, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	pi, err := res.SteadyState()
	if err != nil {
		return 0, 0, err
	}
	return res.ThroughputOf(pi, "depart"), res.Chain.NumStates(), nil
}
