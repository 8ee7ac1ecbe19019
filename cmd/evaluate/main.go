// Command evaluate model-checks a modal mu-calculus formula on an LTS,
// playing the role of CADP's EVALUATOR. Exit status 0 means the formula
// holds in the initial state, 1 means it does not, 2 means error.
//
// Usage:
//
//	evaluate -f 'nu X . (<true> true and [true] X)' model.aut
//	evaluate -deadlock model.aut
//	evaluate -reachable 'push !1' model.aut
//	evaluate -fit samples.txt
//
// The -fit mode leaves model checking aside: it reads one delay sample
// per whitespace-separated token from the file (use - for stdin), fits a
// phase-type distribution by moment matching, and prints its rates as
// parameters ready for a sweep request (e.g. rates measured on real
// hardware feeding the fame family's tbase).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"multival/cmd/internal/cli"
	"multival/internal/mcl"
	"multival/internal/phasetype"
	"multival/internal/serve"
)

func main() {
	c := cli.New("evaluate")
	var (
		formula   = flag.String("f", "", "mu-calculus formula")
		deadlock  = flag.Bool("deadlock", false, "check deadlock freedom")
		reachable = flag.String("reachable", "", "check that a transition with this exact label is reachable")
		fit       = flag.Bool("fit", false, "fit a phase-type distribution to the samples in the file argument")
		jsonOut   = flag.Bool("json", false, "emit the verdict as JSON in the serve wire format")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		c.Usage("evaluate (-f FORMULA | -deadlock | -reachable LABEL | -fit) [-json] (model.aut | samples.txt)")
	}
	if *fit {
		if err := fitSamples(flag.Arg(0), *jsonOut); err != nil {
			c.Fatal(2, err)
		}
		return
	}
	var f mcl.Formula
	switch {
	case *deadlock:
		f = mcl.DeadlockFree()
	case *reachable != "":
		f = mcl.ReachableAction(mcl.Action(*reachable))
	case *formula != "":
		var err error
		f, err = mcl.Parse(*formula)
		if err != nil {
			c.Fatal(2, err)
		}
	default:
		c.Fatal(2, fmt.Errorf("no property given"))
	}

	l, err := cli.LoadLTS(flag.Arg(0))
	if err != nil {
		c.Fatal(2, err)
	}
	ctx, cancel := c.Context()
	defer cancel()

	res, err := mcl.Verify(ctx, l, f)
	if err != nil {
		c.Fatal(2, err)
	}
	if *jsonOut {
		wire := cli.CheckResult{
			Holds:     res.Holds,
			Formula:   res.Formula,
			SatCount:  res.SatCount,
			NumStates: res.NumStates,
			Witness:   res.Witness,
		}
		if err := cli.WriteJSON(os.Stdout, wire); err != nil {
			c.Fatal(2, err)
		}
		if !res.Holds {
			os.Exit(1)
		}
		return
	}
	verdict := "FALSE"
	if res.Holds {
		verdict = "TRUE"
	}
	fmt.Printf("%s\nformula:    %s\nsatisfied:  %d / %d states\n",
		verdict, res.Formula, res.SatCount, res.NumStates)
	if len(res.Witness) > 0 {
		fmt.Printf("witness:    %s\n", strings.Join(res.Witness, " . "))
	}
	if !res.Holds {
		os.Exit(1)
	}
}

// fitSamples reads whitespace-separated samples and prints the fitted
// phase-type distribution.
func fitSamples(path string, jsonOut bool) error {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	var samples []float64
	sc := bufio.NewScanner(in)
	sc.Split(bufio.ScanWords)
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			return fmt.Errorf("sample %d: %w", len(samples)+1, err)
		}
		samples = append(samples, v)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	d, st, err := phasetype.FitSample(samples)
	if err != nil {
		return err
	}
	res := serve.FitResultFrom(d, st)
	if jsonOut {
		return cli.WriteJSON(os.Stdout, res)
	}
	fmt.Printf("samples:    %d (mean %.6g, scv %.6g)\n", res.N, res.Mean, res.SCV)
	fmt.Printf("fit:        %s, %d phases (mean %.6g, scv %.6g)\n",
		res.Distribution, res.Phases, res.FittedMean, res.FittedSCV)
	keys := make([]string, 0, len(res.Params))
	for k := range res.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("param:      %s=%.6g\n", k, res.Params[k])
	}
	fmt.Printf("sweep use:  -p rate_<gate>=%.6g (or plug params into a family's rate parameters)\n",
		res.Params[keys[0]])
	return nil
}
