package xstream

import (
	"context"
	"fmt"

	"multival/internal/imc"
	"multival/internal/lts"
	"multival/internal/phasetype"
)

// PhaseServiceResult reports the measures of a queue whose service time
// is a phase-type distribution (an M/PH/1/K queue). Unlike the
// exponential case there is no textbook closed form, which is exactly
// when the paper's decoration flow earns its keep.
type PhaseServiceResult struct {
	// Throughput is the departure rate.
	Throughput float64
	// Blocking is the probability an arriving item finds the queue
	// full (computed by flow balance from the accepted-arrival rate).
	Blocking float64
	// CTMCStates is the size of the solved chain.
	CTMCStates int
}

// EvaluatePhaseService runs the full compositional performance flow on a
// queue with Poisson arrivals (rate lambda, capacity K) and phase-type
// service dist: the functional model exposes service start/end gates,
// the delay process is attached by composition (imc.Decorate), arrivals
// are decorated directly, and throughput/blocking are read off the CTMC
// via visible markers. Minimization and CTMC extraction observe ctx.
func EvaluatePhaseService(ctx context.Context, capacity int, lambda float64, dist *phasetype.Distribution) (*PhaseServiceResult, error) {
	if capacity < 1 || capacity > 32 {
		return nil, fmt.Errorf("xstream: capacity %d out of 1..32", capacity)
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("xstream: arrival rate %v must be positive", lambda)
	}

	// Functional model: states are (occupancy, serving?). Arrivals
	// "arrive" when not full; service starts (srv_s) when the queue is
	// non-empty and the server idle; completion (srv_e) departs one item.
	l := lts.New(fmt.Sprintf("m-ph-1-%d", capacity))
	type cfg struct {
		n       int
		serving bool
	}
	index := map[cfg]lts.State{}
	var queue []cfg
	intern := func(c cfg) lts.State {
		if s, ok := index[c]; ok {
			return s
		}
		s := l.AddState()
		index[c] = s
		queue = append(queue, c)
		return s
	}
	intern(cfg{0, false})
	l.SetInitial(0)
	for qi := 0; qi < len(queue); qi++ {
		c := queue[qi]
		src := index[c]
		if c.n < capacity {
			l.AddTransition(src, "arrive", intern(cfg{c.n + 1, c.serving}))
		}
		if c.n > 0 && !c.serving {
			l.AddTransition(src, "srv_s", intern(cfg{c.n, true}))
		}
		if c.serving {
			l.AddTransition(src, "srv_e", intern(cfg{c.n - 1, false}))
		}
	}

	// Attach the phase-type service time compositionally.
	m, err := imc.Decorate(l, []imc.Delay{{Start: "srv_s", End: "srv_e", Dist: dist}}, 0)
	if err != nil {
		return nil, err
	}
	// Arrivals become exponential delays with a visible marker so the
	// accepted-arrival rate stays measurable; departures are the hidden
	// srv_e, so mark departures with the service end instead: srv_e was
	// hidden by Decorate, so re-derive departures from arrivals minus
	// growth (steady state: equal) — use the arrival marker only.
	m, err = m.ReplaceLabelByRateWithMarker("arrive", lambda, "accepted")
	if err != nil {
		return nil, err
	}
	min, err := m.Minimize(ctx)
	if err != nil {
		return nil, err
	}
	res, err := min.MaximalProgress().ToCTMCCtx(ctx, imc.UniformScheduler{}, nil)
	if err != nil {
		return nil, err
	}
	pi, err := res.SteadyState()
	if err != nil {
		return nil, err
	}
	accepted := res.ThroughputOf(pi, "accepted")
	return &PhaseServiceResult{
		// In steady state departures equal accepted arrivals.
		Throughput: accepted,
		Blocking:   1 - accepted/lambda,
		CTMCStates: res.Chain.NumStates(),
	}, nil
}
