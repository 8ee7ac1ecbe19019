// Stream queue example: the xSTream studies (paper §3 and §4) — find the
// injected protocol bugs by model checking, then predict occupancy,
// throughput and latency of the network queue under load.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"multival/internal/mcl"
	"multival/internal/xstream"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// ---- Functional verification: hunt the protocol bugs ----
	fmt.Println("functional verification of the credited queue:")
	for _, v := range []struct {
		variant xstream.Variant
		flush   bool
	}{
		{xstream.Correct, true},
		{xstream.CreditLeak, true},
		{xstream.OptimisticPush, false},
	} {
		l, err := xstream.FunctionalModel(xstream.Config{
			Capacity: 3, Values: 2, Variant: v.variant, WithFlush: v.flush,
		})
		if err != nil {
			log.Fatal(err)
		}
		deadlockFree := mcl.MustCheck(l, mcl.DeadlockFree())
		overflowFree := mcl.MustCheck(l, mcl.NeverEnabled(mcl.Action("overflow")))
		fmt.Printf("  %-16s %5d states  deadlock-free=%-5v overflow-free=%v\n",
			v.variant, l.NumStates(), deadlockFree, overflowFree)
		if !deadlockFree {
			res, _ := mcl.Verify(l, mcl.Reachable(mcl.Not(mcl.Dia(mcl.AnyAction(), mcl.True()))))
			fmt.Printf("    -> deadlock witness: %s\n", strings.Join(res.Witness, " . "))
		}
		if !overflowFree {
			res, _ := mcl.Verify(l, mcl.ReachableAction(mcl.Action("overflow")))
			fmt.Printf("    -> overflow witness: %s\n", strings.Join(res.Witness, " . "))
		}
	}

	// ---- Performance evaluation: occupancy / throughput / latency ----
	fmt.Println("\nqueue performance (service rate 2.0):")
	fmt.Println("  capacity  load  mean-occupancy  P(full)  throughput  latency")
	for _, capacity := range []int{4, 16} {
		for _, rho := range []float64{0.5, 0.9, 1.3} {
			res, err := xstream.Evaluate(ctx, xstream.PerfConfig{
				Capacity: capacity, ArrivalRate: rho * 2, ServiceRate: 2,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %8d  %.2f  %14.3f  %.5f  %10.4f  %7.4f\n",
				capacity, rho, res.MeanOccupancy, res.BlockingProbability,
				res.Throughput, res.MeanLatency)
		}
	}

	// Occupancy histogram at heavy load.
	res, err := xstream.Evaluate(ctx, xstream.PerfConfig{Capacity: 8, ArrivalRate: 1.8, ServiceRate: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noccupancy distribution (capacity 8, rho 0.9):")
	for i, p := range res.Occupancy {
		fmt.Printf("  %2d %-7.4f %s\n", i, p, strings.Repeat("#", int(p*200)))
	}
}
