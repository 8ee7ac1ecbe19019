// NoC router example: formal verification of the FAUST asynchronous
// network-on-chip router (paper §3) — CHP description, translation to the
// process calculus, state-space generation, model checking, and the
// isochronous-fork equivalence results, with the comparisons running
// through the context-aware engine facade.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"multival"
	"multival/internal/chp"
	"multival/internal/faust"
	"multival/internal/mcl"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	eng := multival.NewEngine()
	// ---- Router verification ----
	cfg := faust.RouterConfig{Ports: 3}
	l, err := faust.RouterLTS(ctx, cfg, chp.Options{}, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("router (%d ports): %d states, %d transitions\n",
		cfg.Ports, l.NumStates(), l.NumTransitions())

	fmt.Printf("deadlock free:  %v\n", mcl.MustCheck(ctx, l, mcl.DeadlockFree()))

	misroutes := 0
	for _, bad := range faust.MisroutedLabels(cfg.Ports) {
		if !mcl.MustCheck(ctx, l, mcl.NeverEnabled(mcl.Action(bad))) {
			misroutes++
		}
	}
	fmt.Printf("misroutings:    %d (out of %d possible wrong deliveries)\n",
		misroutes, len(faust.MisroutedLabels(cfg.Ports)))

	// Every packet accepted on input 0 is inevitably delivered.
	single, err := faust.RouterLTS(ctx, faust.RouterConfig{Ports: 3, InputsActive: []int{0}},
		chp.Options{}, 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	ok := mcl.MustCheck(ctx, single, mcl.Response(mcl.Action("in0 !2"), mcl.Action("out2 !2")))
	fmt.Printf("delivery guaranteed (in0 -> out2): %v\n", ok)

	// ---- Isochronous fork ----
	fmt.Println("\nisochronous fork (handshake level):")
	forkSpec, err := faust.ForkSpec(2)
	if err != nil {
		log.Fatal(err)
	}
	spec := eng.FromLTS(forkSpec)
	for _, v := range []faust.ForkVariant{faust.ForkWaitBoth, faust.ForkIsochronic, faust.ForkUnsafe} {
		forkImpl, err := faust.ForkImpl(2, v)
		if err != nil {
			log.Fatal(err)
		}
		impl := eng.FromLTS(forkImpl)
		res, err := eng.Compare(ctx, spec, impl, multival.Branching)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s ~ spec: %v\n", v, res.Equivalent)
		if !res.Equivalent {
			if tr, err := eng.Compare(ctx, spec, impl, multival.Trace); err == nil && len(tr.Counterexample) > 0 {
				fmt.Printf("    counterexample: %v\n", tr.Counterexample)
			}
		}
	}
}
