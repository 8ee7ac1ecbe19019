// Package faust models the CEA/Leti FAUST network-on-chip as studied in
// the Multival project: an asynchronous router described in CHP and
// translated to the process calculus (mirroring the CHP-to-LOTOS flow of
// the paper), formally verified for deadlock freedom and correct routing
// (experiment E2), plus the isochronous-fork circuit whose correctness
// theorem the paper reports as "demonstrated automatically" (E3).
package faust

import (
	"context"
	"fmt"

	"multival/internal/chp"
	"multival/internal/lts"
	"multival/internal/process"
)

// Port names of the FAUST router, in index order.
var PortNames = []string{"north", "south", "east", "west", "local"}

// RouterConfig parameterizes the router model.
type RouterConfig struct {
	// Ports is the number of ports used (2..5); a packet is its
	// destination port index.
	Ports int
	// InputsActive restricts which input ports receive traffic (nil
	// means all). Smaller active sets keep the LTS small while still
	// exercising contention.
	InputsActive []int
}

func (c RouterConfig) validate() error {
	if c.Ports < 2 || c.Ports > 5 {
		return fmt.Errorf("faust: ports %d out of 2..5", c.Ports)
	}
	for _, i := range c.InputsActive {
		if i < 0 || i >= c.Ports {
			return fmt.Errorf("faust: active input %d out of range", i)
		}
	}
	return nil
}

func (c RouterConfig) activeInputs() []int {
	if len(c.InputsActive) > 0 {
		return c.InputsActive
	}
	ins := make([]int, c.Ports)
	for i := range ins {
		ins[i] = i
	}
	return ins
}

// RouterProcesses builds the CHP description of the router: one process
// per active input port (receive a packet, decode its destination,
// forward it on the dedicated crossbar wire) and one process per output
// port (merge the crossbar wires feeding it). Channel names:
//
//	in<i>       external input of port i (value = destination port)
//	x<i>_<o>    crossbar wire from input i to output o
//	out<o>      external output of port o
func RouterProcesses(cfg RouterConfig) ([]*chp.Process, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := cfg.Ports
	maxDest := p - 1
	var procs []*chp.Process

	for _, i := range cfg.activeInputs() {
		// Input process: route by destination. The guarded selection
		// mirrors the CHP "@[ dest=o => x_io!dest ]" construct.
		var branches []chp.Branch
		for o := 0; o < p; o++ {
			branches = append(branches, chp.Branch{
				Guard: process.Eq(process.V("pkt"), process.Int(o)),
				Body:  chp.Send{Ch: wire(i, o), E: process.V("pkt")},
			})
		}
		procs = append(procs, &chp.Process{
			Name: fmt.Sprintf("In%d", i),
			Vars: []chp.VarDecl{{Name: "pkt", Lo: 0, Hi: maxDest}},
			Body: chp.Loop{Body: chp.Seq{
				chp.Recv{Ch: fmt.Sprintf("in%d", i), Var: "pkt"},
				chp.Sel{Branches: branches},
			}},
		})
	}

	for o := 0; o < p; o++ {
		// Output process: nondeterministic merge of its crossbar
		// wires (the arbiter).
		var branches []chp.Branch
		for _, i := range cfg.activeInputs() {
			branches = append(branches, chp.Branch{
				Body: chp.Seq{
					chp.Recv{Ch: wire(i, o), Var: "pkt"},
					chp.Send{Ch: fmt.Sprintf("out%d", o), E: process.V("pkt")},
				},
			})
		}
		procs = append(procs, &chp.Process{
			Name: fmt.Sprintf("Out%d", o),
			Vars: []chp.VarDecl{{Name: "pkt", Lo: 0, Hi: maxDest}},
			Body: chp.Loop{Body: chp.Sel{Branches: branches}},
		})
	}
	return procs, nil
}

func wire(i, o int) string { return fmt.Sprintf("x%d_%d", i, o) }

// RouterLTS translates the CHP router to the process calculus, generates
// its LTS, and hides the internal crossbar wires. Options.HandshakeExpand
// models the request/acknowledge implementation of each channel.
// Generation observes ctx (see process.System.GenerateCtx).
func RouterLTS(ctx context.Context, cfg RouterConfig, opts chp.Options, maxStates int) (*lts.LTS, error) {
	procs, err := RouterProcesses(cfg)
	if err != nil {
		return nil, err
	}
	sys, err := chp.Translate(procs, opts)
	if err != nil {
		return nil, err
	}
	l, err := sys.GenerateCtx(ctx, process.GenOptions{MaxStates: maxStates})
	if err != nil {
		return nil, err
	}
	// Hide the crossbar wires: internal to the router.
	hidden := l.Hide(func(label string) bool {
		return len(label) > 0 && label[0] == 'x'
	})
	trimmed, _ := hidden.Trim()
	trimmed.SetName(fmt.Sprintf("faust-router-p%d", cfg.Ports))
	return trimmed, nil
}

// RoutingProperty builds the mu-calculus property "no packet is ever
// misrouted": output port o never emits a packet whose destination is not
// o. Returns the property source for documentation plus the formula
// encoded via the mcl constructors by the caller; here we only expose the
// label predicate helpers.
func MisroutedLabels(ports int) []string {
	var bad []string
	for o := 0; o < ports; o++ {
		for d := 0; d < ports; d++ {
			if d != o {
				bad = append(bad, fmt.Sprintf("out%d !%d", o, d))
			}
		}
	}
	return bad
}
