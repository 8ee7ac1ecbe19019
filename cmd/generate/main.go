// Command generate compiles a model into a labeled transition system in
// Aldebaran (.aut) format, playing the role of CADP's CAESAR generator.
//
// Usage:
//
//	generate -lotos spec.lotos            # LOTOS-like DSL file
//	generate -model xstream -capacity 3   # built-in case-study models
//	generate -model faust-router -ports 3
//	generate -model fame-coherence -nodes 3 -protocol MESI
//
// The LTS is written to stdout (or -o file). DSL generation runs through
// the shared engine: -max-states bounds it, -timeout cancels it
// mid-worklist, -progress reports explored states.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"multival/cmd/internal/cli"
	"multival/internal/chp"
	"multival/internal/fame"
	"multival/internal/faust"
	"multival/internal/lts"
	"multival/internal/xstream"
)

func main() {
	c := cli.New("generate").MaxStatesFlag(1 << 20)
	var (
		lotosFile = flag.String("lotos", "", "LOTOS-like specification file")
		model     = flag.String("model", "", "built-in model: xstream | xstream-buggy | faust-router | faust-fork | fame-coherence")
		out       = flag.String("o", "", "output file (default stdout)")
		capacity  = flag.Int("capacity", 3, "xstream queue capacity")
		values    = flag.Int("values", 2, "number of data values")
		ports     = flag.Int("ports", 3, "faust router ports (2..5)")
		nodes     = flag.Int("nodes", 3, "fame node count")
		protocol  = flag.String("protocol", "MSI", "fame coherence protocol: MSI | MESI")
		handshake = flag.Bool("handshake", false, "expand channels into req/ack handshakes (faust-router)")
	)
	flag.Parse()
	ctx, cancel := c.Context()
	defer cancel()

	// The builtin generators take no context; the watchdog gives
	// -timeout teeth there too (the LOTOS path cancels mid-worklist).
	l, err := cli.Watchdog(ctx, func() (*lts.LTS, error) {
		return build(ctx, c, *lotosFile, *model, buildOptions{
			capacity: *capacity, values: *values,
			ports: *ports, nodes: *nodes, protocol: *protocol, handshake: *handshake,
		})
	})
	if err != nil {
		c.Fatal(1, err)
	}
	if err := cli.StoreLTS(*out, l); err != nil {
		c.Fatal(1, err)
	}
	fmt.Fprintf(os.Stderr, "%s\n", l)
}

type buildOptions struct {
	capacity, values, ports, nodes int
	protocol                       string
	handshake                      bool
}

func build(ctx context.Context, c *cli.Common, lotosFile, model string, o buildOptions) (*lts.LTS, error) {
	switch {
	case lotosFile != "":
		src, err := os.ReadFile(lotosFile)
		if err != nil {
			return nil, err
		}
		m, err := c.Engine().FromLOTOS(ctx, string(src))
		if err != nil {
			return nil, err
		}
		return m.L, nil

	case model == "xstream":
		return xstream.FunctionalModel(xstream.Config{
			Capacity: o.capacity, Values: o.values, Variant: xstream.Correct, WithFlush: true,
		})
	case model == "xstream-buggy":
		return xstream.FunctionalModel(xstream.Config{
			Capacity: o.capacity, Values: o.values, Variant: xstream.CreditLeak, WithFlush: true,
		})
	case model == "faust-router":
		return faust.RouterLTS(ctx, faust.RouterConfig{Ports: o.ports},
			chp.Options{HandshakeExpand: o.handshake}, c.MaxStates)
	case model == "faust-fork":
		return faust.ForkSpec(o.values)
	case model == "fame-coherence":
		p := fame.MSI
		if o.protocol == "MESI" {
			p = fame.MESI
		}
		return fame.CoherenceLTS(o.nodes, p)
	case model == "":
		return nil, fmt.Errorf("one of -lotos or -model is required")
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
}
