// Command solve runs the performance-evaluation flow on an LTS: delays
// are attached to labels as exponential rates, the resulting Interactive
// Markov Chain is lumped and transformed into a CTMC, and steady-state
// (or transient) measures — state probabilities and action throughputs —
// are printed, playing the role of CADP's BCG_STEADY / BCG_TRANSIENT.
// The whole flow is one Pipeline of the shared engine API.
//
// Usage:
//
//	solve -rate 'push=1.5' -rate 'pop=2' [-marker pop] [-at T] model.aut
//
// Labels are matched per gate: every label of the gate gets the rate.
// A -rate gate with no transitions in the model is an error (it would
// silently skew the chain otherwise). Gates named by -marker keep a
// visible completion event so their throughput is reported.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"multival"
	"multival/cmd/internal/cli"
)

func main() {
	c := cli.New("solve")
	var rates cli.RateFlag
	flag.Var(&rates, "rate", "gate=rate (repeatable)")
	var (
		markers = flag.String("marker", "", "comma-separated gates whose throughput to report")
		uniform = flag.Bool("uniform-scheduler", false, "resolve nondeterminism uniformly instead of rejecting it")
		at      = flag.Float64("at", -1, "solve the transient distribution at this time instead of the steady state")
		bounds  = flag.String("bounds", "", "comma-separated labels whose throughput to bound over all deterministic schedulers (policy iteration)")
		jsonOut = flag.Bool("json", false, "emit the result as JSON in the serve wire format")
	)
	flag.Parse()
	if flag.NArg() != 1 || len(rates.Rates) == 0 {
		c.Usage("solve -rate gate=RATE [...] [-marker g1,g2] [-uniform-scheduler] [-at T] [-bounds l1,l2] [-json] [-timeout D] model.aut")
	}
	l, err := cli.LoadLTS(flag.Arg(0))
	if err != nil {
		c.Fatal(2, err)
	}
	ctx, cancel := c.Context()
	defer cancel()

	var extra []multival.Option
	if *uniform {
		extra = append(extra, multival.WithScheduler(multival.UniformScheduler{}))
	}
	eng := c.Engine(extra...)

	pm, err := eng.Compose(eng.FromLTS(l)).
		DecorateGateRates(rates.Rates, cli.Gates(*markers)...).
		Lump().
		Perf(ctx)
	if err != nil {
		c.Fatal(1, err)
	}
	if !*jsonOut {
		fmt.Printf("IMC: lumped to %d states (input LTS: %d states)\n", pm.States(), l.NumStates())
	}

	kind := "steady"
	var ms *multival.Measures
	if *at >= 0 {
		kind = "transient"
		ms, err = pm.Transient(ctx, *at)
	} else {
		ms, err = pm.SteadyState(ctx)
	}
	skipped := false
	switch {
	case err == nil:
	case *bounds != "" && errors.Is(err, multival.ErrNondeterministic):
		// The point measure needs a scheduler, but bounding over ALL
		// deterministic schedulers is exactly what -bounds is for:
		// skip the point measure and report the bounds.
		skipped = true
		if !*jsonOut {
			fmt.Printf("point measure skipped: %v\n", err)
		}
	default:
		c.Fatal(1, err)
	}

	boundsOf := map[string][2]float64{}
	for _, lab := range cli.Gates(*bounds) {
		lo, hi, err := pm.ThroughputBounds(ctx, lab)
		if err != nil {
			c.Fatal(1, err)
		}
		boundsOf[lab] = [2]float64{lo, hi}
	}

	if *jsonOut {
		var res *cli.Result
		if skipped {
			res = &cli.Result{Kind: kind}
			if *at >= 0 {
				res.At = *at
			}
		} else {
			res = cli.ResultFromMeasures(ms, kind, *at, true)
		}
		res.IMCStates = pm.States()
		if len(boundsOf) > 0 {
			res.Bounds = boundsOf
		}
		if err := cli.WriteJSON(os.Stdout, res); err != nil {
			c.Fatal(1, err)
		}
		return
	}

	if !skipped {
		fmt.Printf("CTMC: %d states\n", ms.CTMCStates)
		if *at >= 0 {
			fmt.Printf("state probabilities at t=%g:\n", *at)
		} else {
			fmt.Println("steady-state probabilities:")
		}
		for i, p := range ms.Pi {
			if p > 1e-12 {
				fmt.Printf("  state %4d (imc %4d): %.6f\n", i, ms.StateOf[i], p)
			}
		}
		if len(ms.Throughputs) > 0 {
			fmt.Println("throughputs:")
			for _, lab := range cli.SortedKeys(ms.Throughputs) {
				fmt.Printf("  %-20s %.6f /time-unit\n", lab, ms.Throughputs[lab])
			}
		}
	}
	if *bounds != "" {
		fmt.Println("throughput bounds over deterministic schedulers:")
		for _, lab := range cli.Gates(*bounds) {
			b := boundsOf[lab]
			fmt.Printf("  %-20s [%.6f, %.6f] /time-unit\n", lab, b[0], b[1])
		}
	}
}
