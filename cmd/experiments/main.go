// Command experiments regenerates every experiment of the reproduction
// (E1–E9), printing one table or series per claim of the Multival paper's
// evaluation (§3–§5). EXPERIMENTS.md is produced from this output.
//
// Usage:
//
//	experiments                      # run everything
//	experiments E4 E6                # run selected experiments
//	experiments -timeout 2m          # bound the whole run
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"multival/cmd/internal/cli"

	"multival/internal/bisim"
	"multival/internal/chp"
	"multival/internal/compose"
	"multival/internal/fame"
	"multival/internal/faust"
	"multival/internal/imc"
	"multival/internal/lts"
	"multival/internal/markov"
	"multival/internal/mcl"
	"multival/internal/phasetype"
	"multival/internal/xstream"
)

var experiments = []struct {
	id, title string
	run       func(context.Context) error
}{
	{"E1", "xSTream functional issues found by model checking (§3)", e1},
	{"E2", "FAUST NoC router verified formally (§3)", e2},
	{"E3", "Isochronous fork theorems demonstrated automatically (§3)", e3},
	{"E4", "FAME2 MPI latency: topology x MPI implementation x protocol (§4)", e4},
	{"E5", "xSTream latency, throughput, queue occupancy (§4)", e5},
	{"E6", "Fixed-time delays: space-accuracy trade-off (§5)", e6},
	{"E7", "Nondeterminism and the Markov solvers (§5)", e7},
	{"E8", "Compositional verification vs state-space explosion (§3)", e8},
	{"E9", "Lumping ablation: minimize during vs after composition (§4)", e9},
	{"E10", "Time-dependent state probabilities (transient analysis, §4)", e10},
	{"E11", "Service-time variability ablation: M/PH/1/K via the decoration flow", e11},
}

func main() {
	c := cli.New("experiments")
	flag.Parse()
	ctx, cancel := c.Context()
	defer cancel()

	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[strings.ToUpper(a)] = true
	}
	failed := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		// The run budget (-timeout) is checked here and, inside every
		// experiment but E4 (small models built by ctx-less generators),
		// at each generation, model check, refinement and extraction.
		if err := ctx.Err(); err != nil {
			fmt.Printf("ERROR: run budget exhausted before %s: %v\n", e.id, err)
			failed++
			break
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.title)
		if err := e.run(ctx); err != nil {
			fmt.Printf("ERROR: %v\n", err)
			failed++
		}
		fmt.Println()
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// E1: the two injected xSTream protocol issues are found by the flow.
func e1(ctx context.Context) error {
	fmt.Println("variant          capacity states  deadlock-free  overflow-free  diagnosis")
	for _, row := range []struct {
		variant xstream.Variant
		flush   bool
	}{
		{xstream.Correct, true},
		{xstream.CreditLeak, true},
		{xstream.OptimisticPush, false},
	} {
		for _, cap := range []int{2, 4} {
			l, err := xstream.FunctionalModel(xstream.Config{
				Capacity: cap, Values: 2, Variant: row.variant, WithFlush: row.flush,
			})
			if err != nil {
				return err
			}
			dlFree, err := mcl.Check(ctx, l, mcl.DeadlockFree())
			if err != nil {
				return err
			}
			ovFree, err := mcl.Check(ctx, l, mcl.NeverEnabled(mcl.Action("overflow")))
			if err != nil {
				return err
			}
			diag := "-"
			if !dlFree {
				res, err := mcl.Verify(ctx, l, mcl.Reachable(mcl.Not(mcl.Dia(mcl.AnyAction(), mcl.True()))))
				if err == nil && len(res.Witness) > 0 {
					diag = "deadlock after: " + strings.Join(res.Witness, ".")
				}
			} else if !ovFree {
				res, err := mcl.Verify(ctx, l, mcl.ReachableAction(mcl.Action("overflow")))
				if err == nil && len(res.Witness) > 0 {
					diag = "overflow after: " + strings.Join(res.Witness, ".")
				}
			}
			fmt.Printf("%-16s %8d %6d  %-13v  %-13v  %s\n",
				row.variant, cap, l.NumStates(), dlFree, ovFree, diag)
		}
	}
	return nil
}

// E2: router verification, monolithic vs compositional sizes.
func e2(ctx context.Context) error {
	fmt.Println("ports inputs  handshake  states  transitions  deadlock-free  misroute-free")
	for _, cfg := range []struct {
		ports  int
		inputs []int
		hs     bool
	}{
		{2, nil, false},
		{3, nil, false},
		{3, []int{0, 1}, false},
		{3, nil, true},
		{4, []int{0, 1}, false},
	} {
		l, err := faust.RouterLTS(ctx, faust.RouterConfig{Ports: cfg.ports, InputsActive: cfg.inputs},
			chp.Options{HandshakeExpand: cfg.hs}, 2<<20)
		if err != nil {
			return err
		}
		dl, err := mcl.Check(ctx, l, mcl.DeadlockFree())
		if err != nil {
			return err
		}
		mis := true
		for _, bad := range faust.MisroutedLabels(cfg.ports) {
			never, err := mcl.Check(ctx, l, mcl.NeverEnabled(mcl.Action(bad)))
			if err != nil {
				return err
			}
			mis = mis && never
		}
		ni := len(cfg.inputs)
		if ni == 0 {
			ni = cfg.ports
		}
		fmt.Printf("%5d %6d  %-9v  %6d %12d  %-13v  %v\n",
			cfg.ports, ni, cfg.hs, l.NumStates(), l.NumTransitions(), dl, mis)
	}
	return nil
}

// E3: fork implementations vs specification.
func e3(ctx context.Context) error {
	spec, err := faust.ForkSpec(2)
	if err != nil {
		return err
	}
	fmt.Printf("specification: %d states, %d transitions\n", spec.NumStates(), spec.NumTransitions())
	fmt.Println("variant      states  ~spec(branching)  deadlock  verdict")
	for _, v := range []faust.ForkVariant{faust.ForkWaitBoth, faust.ForkIsochronic, faust.ForkUnsafe} {
		impl, err := faust.ForkImpl(2, v)
		if err != nil {
			return err
		}
		eq, err := bisim.EquivalentCtx(ctx, spec, impl, bisim.Branching, bisim.Options{})
		if err != nil {
			return err
		}
		dead, err := mcl.Check(ctx, impl, mcl.Reachable(mcl.Not(mcl.Dia(mcl.AnyAction(), mcl.True()))))
		if err != nil {
			return err
		}
		verdict := "CORRECT"
		if !eq {
			verdict = "REJECTED"
			res, err := bisim.CompareCtx(ctx, spec, impl, bisim.Trace, bisim.Options{})
			if err != nil {
				return err
			}
			if len(res.Counterexample) > 0 {
				verdict += " (trace: " + strings.Join(res.Counterexample, ".") + ")"
			}
		}
		fmt.Printf("%-12s %6d  %-16v  %-8v  %s\n", v, impl.NumStates(), eq, dead, verdict)
	}
	return nil
}

// E4: the FAME2 MPI latency prediction table.
func e4(context.Context) error {
	base := fame.Workload{
		Nodes: 16, A: 0, B: 5, Chunks: 8, Scratch: 4, Rounds: 3,
	}
	tm := fame.Timing{TBase: 50, THop: 20, ErlangK: 3} // ns-ish units
	rows, err := fame.Sweep(base, nil, nil, nil, tm)
	if err != nil {
		return err
	}
	fmt.Printf("nodes=%d chunks=%d scratch=%d  timing: base=%g hop=%g erlang-k=%d\n",
		base.Nodes, base.Chunks, base.Scratch, tm.TBase, tm.THop, tm.ErlangK)
	fmt.Println("topology  mpi-mode    protocol  messages  hops  latency  ctmc-states")
	for _, r := range rows {
		fmt.Printf("%-9s %-11s %-9s %8d %5d %8.1f %12d\n",
			r.Topology, r.Workload.Mode, r.Workload.Protocol,
			r.Messages, r.TotalHops, r.Latency, r.CTMCStates)
	}
	return nil
}

// E5: xSTream queue performance across load.
func e5(ctx context.Context) error {
	fmt.Println("capacity  rho    mean-occ  P(full)   throughput  latency   max|err| vs M/M/1/K")
	for _, cap := range []int{4, 8, 16} {
		for _, rho := range []float64{0.3, 0.6, 0.9, 1.2, 1.5} {
			mu := 2.0
			cfg := xstream.PerfConfig{Capacity: cap, ArrivalRate: rho * mu, ServiceRate: mu}
			res, err := xstream.Evaluate(ctx, cfg)
			if err != nil {
				return err
			}
			analytic := xstream.AnalyticOccupancy(cfg)
			maxErr := 0.0
			for i := range analytic {
				if d := res.Occupancy[i] - analytic[i]; d > maxErr {
					maxErr = d
				} else if -d > maxErr {
					maxErr = -d
				}
			}
			fmt.Printf("%8d  %.2f  %8.3f  %.5f  %10.4f  %8.4f  %.2e\n",
				cap, rho, res.MeanOccupancy, res.BlockingProbability,
				res.Throughput, res.MeanLatency, maxErr)
		}
	}
	return nil
}

// E6: Erlang approximation of a fixed delay.
func e6(ctx context.Context) error {
	fmt.Println("phases k  scv      W1-distance   imc-states  ctmc-states  cycle-throughput")
	// A work cycle with a fixed delay of 0.5 time units: throughput 2.
	work := lts.New("work")
	work.AddStates(3)
	work.AddTransition(0, "work_s", 1)
	work.AddTransition(1, "work_e", 2)
	work.AddTransition(2, "done", 0)
	work.SetInitial(0)
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64} {
		scv, sup, err := phasetype.FixedDelayError(0.5, k)
		if err != nil {
			return err
		}
		dist, err := phasetype.FitFixedDelay(0.5, k)
		if err != nil {
			return err
		}
		m, err := imc.Decorate(work, []imc.Delay{{Start: "work_s", End: "work_e", Dist: dist}}, 0)
		if err != nil {
			return err
		}
		res, err := m.ToCTMCCtx(ctx, nil, nil)
		if err != nil {
			return err
		}
		pi, err := res.SteadyState()
		if err != nil {
			return err
		}
		fmt.Printf("%8d  %.5f  %.5f      %10d  %11d  %.6f\n",
			k, scv, sup, m.NumStates(), res.Chain.NumStates(), res.ThroughputOf(pi, "done"))
	}
	return nil
}

// E7: nondeterminism — rejection, uniform resolution, extremal bounds.
func e7(ctx context.Context) error {
	// A server with a fast and a slow path chosen nondeterministically.
	m := imc.New("nd-server")
	idle := m.AddState()
	choice := m.AddState()
	fast := m.AddState()
	slow := m.AddState()
	fdone := m.AddState()
	sdone := m.AddState()
	m.MustAddRate(idle, choice, 1) // request arrival
	m.AddInteractive(choice, lts.Tau, fast)
	m.AddInteractive(choice, lts.Tau, slow)
	m.MustAddRate(fast, fdone, 4)
	m.MustAddRate(slow, sdone, 0.5)
	m.AddInteractive(fdone, "served", idle)
	m.AddInteractive(sdone, "served", idle)
	m.Inter.SetInitial(idle)

	_, err := m.ToCTMCCtx(ctx, nil, nil)
	fmt.Printf("no scheduler:        %v\n", err)
	res, err := m.ToCTMCCtx(ctx, imc.UniformScheduler{}, nil)
	if err != nil {
		return err
	}
	pi, err := res.SteadyState()
	if err != nil {
		return err
	}
	fmt.Printf("uniform scheduler:   served throughput = %.4f\n", res.ThroughputOf(pi, "served"))
	lo, hi, err := m.ThroughputBounds("served", markov.SolveOptions{Ctx: ctx})
	if err != nil {
		return err
	}
	fmt.Printf("extremal schedulers: served throughput in [%.4f, %.4f] (policy iteration)\n", lo, hi)
	elo, ehi, err := m.ThroughputBoundsEnum(ctx, "served", 0)
	if err != nil {
		return err
	}
	if math.Abs(elo-lo) > 1e-6 || math.Abs(ehi-hi) > 1e-6 {
		return fmt.Errorf("policy iteration [%g, %g] disagrees with enumeration [%g, %g]", lo, hi, elo, ehi)
	}
	fmt.Println("enumeration cross-check: agreed")
	return nil
}

// E8: compositional reduction vs monolithic generation on queue pipelines.
func e8(ctx context.Context) error {
	fmt.Println("stages  monolithic-peak  smart-peak  final  reduction-factor  equivalent")
	for _, n := range []int{2, 3, 4, 5, 6} {
		net, err := xstream.PipelineNetwork(n, 1, 2)
		if err != nil {
			return err
		}
		mono, monoRep, err := compose.MonolithicCtx(ctx, net, bisim.Branching, bisim.Options{})
		if err != nil {
			return err
		}
		smart, smartRep, err := compose.SmartReduceCtx(ctx, net, bisim.Branching, bisim.Options{})
		if err != nil {
			return err
		}
		eq, err := bisim.EquivalentCtx(ctx, mono, smart, bisim.Branching, bisim.Options{})
		if err != nil {
			return err
		}
		factor := float64(monoRep.PeakStates) / float64(smartRep.PeakStates)
		fmt.Printf("%6d  %15d  %10d  %5d  %16.2f  %v\n",
			n, monoRep.PeakStates, smartRep.PeakStates, smartRep.FinalStates, factor, eq)
	}
	return nil
}

// E10: time-dependent state probabilities of an xSTream queue filling up
// from empty — the "time-dependent state probabilities" measure of §4,
// computed by uniformization and cross-checked against the steady state.
func e10(ctx context.Context) error {
	cfg := xstream.PerfConfig{Capacity: 8, ArrivalRate: 1.8, ServiceRate: 2}
	l := xstream.CountingModel(cfg.Capacity)
	m, err := imc.DecorateRates(l, map[string]float64{
		"push": cfg.ArrivalRate, "pop": cfg.ServiceRate,
	})
	if err != nil {
		return err
	}
	res, err := m.ToCTMCCtx(ctx, nil, nil)
	if err != nil {
		return err
	}
	steady, err := res.SteadyState()
	if err != nil {
		return err
	}
	meanAt := func(pi []float64) float64 {
		mean := 0.0
		for ci, p := range pi {
			mean += float64(res.StateOf[ci]) * p
		}
		return mean
	}
	fmt.Printf("queue capacity %d, rho %.2f, starting empty\n",
		cfg.Capacity, cfg.ArrivalRate/cfg.ServiceRate)
	fmt.Println("t       P(empty)  P(full)   mean-occupancy")
	for _, t := range []float64{0, 0.5, 1, 2, 4, 8, 16, 32, 64} {
		pi, err := res.TransientOpt(t, markov.SolveOptions{Ctx: ctx})
		if err != nil {
			return err
		}
		fmt.Printf("%6.1f  %.5f   %.5f   %8.4f\n",
			t, pi[0], pi[len(pi)-1], meanAt(pi))
	}
	fmt.Printf("steady  %.5f   %.5f   %8.4f\n",
		steady[0], steady[len(steady)-1], meanAt(steady))
	return nil
}

// E11: the decoration flow beyond exponential delays — a queue with
// phase-type (Erlang-k) service, where no M/M/1/K closed form applies.
// Lower service variability (higher k) reduces blocking at equal load,
// at the cost of a larger CTMC: the modeling-power side of the
// space-accuracy trade-off.
func e11(ctx context.Context) error {
	lambda, mu := 1.8, 2.0
	capacity := 6
	fmt.Printf("M/Erlang-k/1/%d, lambda=%g, mean service %g\n", capacity, lambda, 1/mu)
	fmt.Println("service-k  scv     blocking  throughput  ctmc-states")
	for _, k := range []int{1, 2, 4, 8} {
		dist, err := phasetype.FitFixedDelay(1/mu, k)
		if err != nil {
			return err
		}
		res, err := xstream.EvaluatePhaseService(ctx, capacity, lambda, dist)
		if err != nil {
			return err
		}
		fmt.Printf("%9d  %.4f  %.5f   %.5f    %11d\n",
			k, 1/float64(k), res.Blocking, res.Throughput, res.CTMCStates)
	}
	return nil
}

// E9: lumping during vs after composition of decorated queue stages,
// reproducing the paper's "compositional approach (which alternates state
// space generation and stochastic state space minimization)".
func e9(ctx context.Context) error {
	fmt.Println("stages  peak-no-lumping  peak-with-lumping  throughput-delta")
	lam, mu := 1.0, 2.0
	gate := func(i int) string { return fmt.Sprintf("h%d", i) }
	// Arrival process: ~~lam~~> offer h1.
	arrival := func() *imc.IMC {
		m := imc.New("arrival")
		a0, a1 := m.AddState(), m.AddState()
		m.MustAddRate(a0, a1, lam)
		m.AddInteractive(a1, gate(1), a0)
		m.Inter.SetInitial(a0)
		return m
	}
	// Stage i: accept h_i, serve at rate mu, hand off on h_{i+1}.
	stage := func(i int) *imc.IMC {
		m := imc.New("stage")
		empty, busy, ready := m.AddState(), m.AddState(), m.AddState()
		m.AddInteractive(empty, gate(i), busy)
		m.MustAddRate(busy, ready, mu)
		m.AddInteractive(ready, gate(i+1), empty)
		m.Inter.SetInitial(empty)
		return m
	}
	for _, n := range []int{2, 3, 4, 5} {
		build := func(lumpEach bool) (*imc.IMC, int, error) {
			cur := arrival()
			peak := cur.NumStates()
			for i := 1; i <= n; i++ {
				next, err := imc.Compose(cur, stage(i), []string{gate(i)}, 0)
				if err != nil {
					return nil, 0, err
				}
				// Gate i is now internal to the composition.
				next = next.Hide(gate(i))
				if next.NumStates() > peak {
					peak = next.NumStates()
				}
				if lumpEach {
					if next, err = next.Minimize(ctx); err != nil {
						return nil, 0, err
					}
				}
				cur = next
			}
			cur, err := cur.Minimize(ctx)
			return cur, peak, err
		}
		// The final handoff gate(n+1) stays visible: its occurrence
		// rate is the pipeline throughput. Hidden handoffs introduce
		// confluent tau choices, resolved uniformly (all schedulers
		// agree on confluent taus, validated by the delta column).
		thr := func(m *imc.IMC) (float64, error) {
			res, err := m.MaximalProgress().ToCTMCCtx(ctx, imc.UniformScheduler{}, nil)
			if err != nil {
				return 0, err
			}
			pi, err := res.SteadyState()
			if err != nil {
				return 0, err
			}
			return res.ThroughputOf(pi, gate(n+1)), nil
		}
		plain, peak1, err := build(false)
		if err != nil {
			return err
		}
		lumped, peak2, err := build(true)
		if err != nil {
			return err
		}
		t1, err := thr(plain)
		if err != nil {
			return err
		}
		t2, err := thr(lumped)
		if err != nil {
			return err
		}
		delta := t1 - t2
		if delta < 0 {
			delta = -delta
		}
		fmt.Printf("%6d  %15d  %17d  %16.2e\n", n, peak1, peak2, delta)
	}
	return nil
}
