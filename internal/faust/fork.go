package faust

import (
	"context"
	"fmt"

	"multival/internal/lts"
	"multival/internal/process"
)

// The isochronous fork experiment (E3). A fork duplicates a value from
// input channel a onto outputs b and c. In an asynchronous circuit each
// channel is a request/acknowledge handshake; the isochronic-fork
// assumption states that both branches of a forked wire see a transition
// "simultaneously enough" that one acknowledgment may stand for both.
// The Multival paper reports that "theoretical results on isochronous
// forks in asynchronous circuits have been demonstrated automatically";
// we reproduce the shape of that result with three fork implementations
// checked against a common specification:
//
//   - ForkWaitBoth: waits for both acknowledgments — always correct.
//   - ForkIsochronic: b and c share a single acknowledgment wire (valid
//     exactly under the isochronicity assumption, modeled as a three-way
//     synchronization) — equivalent to the specification.
//   - ForkUnsafe: acknowledges the input after the b acknowledgment only
//     and never samples the c acknowledgment — the protocol wedges, which
//     the verification flow exposes as a reachable deadlock and an
//     inequivalence with the specification.
type ForkVariant int

const (
	// ForkWaitBoth waits for both branch acknowledgments.
	ForkWaitBoth ForkVariant = iota
	// ForkIsochronic uses one shared acknowledgment for both branches.
	ForkIsochronic
	// ForkUnsafe acknowledges after the b branch only (broken unless
	// the c branch is isochronic with b, which the environment here
	// does not guarantee).
	ForkUnsafe
)

// String names the variant.
func (v ForkVariant) String() string {
	switch v {
	case ForkWaitBoth:
		return "wait-both"
	case ForkIsochronic:
		return "isochronic"
	case ForkUnsafe:
		return "unsafe"
	default:
		return "unknown"
	}
}

// ForkSpec generates the specification LTS over values 0..values-1: each
// input value (gate a is internal pacing, kept hidden) is delivered on
// both b and c, in any order, before the next round.
func ForkSpec(values int) (*lts.LTS, error) {
	if err := checkValues(values); err != nil {
		return nil, err
	}
	sys := process.NewSystem("fork-spec")
	// Fork(n) := (b!n; exit ||| c!n; exit) >> Fork((n+1) mod values)
	sys.Define("Fork", []string{"n"},
		process.Seq{
			A: process.Interleave(
				process.Act("b", []process.Offer{process.Send(process.V("n"))}, process.Exit{}),
				process.Act("c", []process.Offer{process.Send(process.V("n"))}, process.Exit{}),
			),
			B: process.Call{Proc: "Fork", Args: []process.Expr{
				process.Mod(process.Add(process.V("n"), process.Int(1)), process.Int(values)),
			}},
		})
	sys.SetRoot(process.Call{Proc: "Fork", Args: []process.Expr{process.Int(0)}})
	// At most 4 values keeps the model tiny, and mvbench pins this
	// signature, so generation runs without a caller context.
	return sys.GenerateCtx(context.Background(), process.GenOptions{})
}

// ForkImpl generates the handshake-level implementation for the given
// variant, composed with a cyclic data source and two acknowledging
// sinks; all handshake gates are hidden, so the visible alphabet matches
// ForkSpec (b !v, c !v).
func ForkImpl(values int, variant ForkVariant) (*lts.LTS, error) {
	sys, err := ForkSystem(values, variant)
	if err != nil {
		return nil, err
	}
	// At most 4 values keeps the model tiny, and mvbench pins this
	// signature, so generation runs without a caller context.
	l, err := sys.GenerateCtx(context.Background(), process.GenOptions{})
	if err != nil {
		return nil, err
	}
	trimmed, _ := l.Trim()
	trimmed.SetName(sys.Name)
	return trimmed, nil
}

// ForkSystem builds the process system ForkImpl generates: the fork
// circuit, source and sinks under hidden handshake gates.
func ForkSystem(values int, variant ForkVariant) (*process.System, error) {
	if err := checkValues(values); err != nil {
		return nil, err
	}
	sys := process.NewSystem("fork-" + variant.String())
	v := values - 1

	// The fork circuit.
	forkTail := func() process.Behavior {
		switch variant {
		case ForkWaitBoth:
			return process.Seq{
				A: process.Interleave(
					process.Do("b_ack", process.Exit{}),
					process.Do("c_ack", process.Exit{}),
				),
				B: process.Do("a_ack", process.Call{Proc: "ForkC"}),
			}
		case ForkIsochronic:
			return process.Do("bc_ack",
				process.Do("a_ack", process.Call{Proc: "ForkC"}))
		default: // ForkUnsafe
			return process.Do("b_ack",
				process.Do("a_ack", process.Call{Proc: "ForkC"}))
		}
	}
	sys.Define("ForkC", nil,
		process.Act("a_req", []process.Offer{process.Recv("x", 0, v)},
			process.Act("b_req", []process.Offer{process.Send(process.V("x"))},
				process.Act("c_req", []process.Offer{process.Send(process.V("x"))},
					forkTail()))))

	// Source driving values cyclically through the a handshake.
	sys.Define("Src", []string{"n"},
		process.Act("a_req", []process.Offer{process.Send(process.V("n"))},
			process.Do("a_ack",
				process.Call{Proc: "Src", Args: []process.Expr{
					process.Mod(process.Add(process.V("n"), process.Int(1)), process.Int(values)),
				}})))

	ackB, ackC := "b_ack", "c_ack"
	if variant == ForkIsochronic {
		ackB, ackC = "bc_ack", "bc_ack"
	}
	sys.Define("SinkB", nil,
		process.Act("b_req", []process.Offer{process.Recv("x", 0, v)},
			process.Act("b", []process.Offer{process.Send(process.V("x"))},
				process.Do(ackB, process.Call{Proc: "SinkB"}))))
	sys.Define("SinkC", nil,
		process.Act("c_req", []process.Offer{process.Recv("x", 0, v)},
			process.Act("c", []process.Offer{process.Send(process.V("x"))},
				process.Do(ackC, process.Call{Proc: "SinkC"}))))

	// Composition: the sinks synchronize with the fork on their
	// handshakes; under ForkIsochronic the shared bc_ack is a three-way
	// synchronization (both sinks AND the fork), which is exactly the
	// isochronic-wire abstraction.
	sinkGates := []string{"b_req", "c_req", ackB, ackC}
	sinks := process.SyncPar(sharedGates(ackB, ackC),
		process.Call{Proc: "SinkB"}, process.Call{Proc: "SinkC"})
	circuit := process.SyncPar(dedup(sinkGates), process.Call{Proc: "ForkC"}, sinks)
	root := process.SyncPar([]string{"a_req", "a_ack"},
		process.Call{Proc: "Src", Args: []process.Expr{process.Int(0)}},
		circuit)
	sys.SetRoot(process.HideIn(
		[]string{"a_req", "a_ack", "b_req", "b_ack", "c_req", "c_ack", "bc_ack"}, root))
	return sys, nil
}

func sharedGates(ackB, ackC string) []string {
	if ackB == ackC {
		return []string{ackB} // the two sinks jointly ack (isochronic)
	}
	return nil // independent sinks interleave
}

func dedup(gs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range gs {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out
}

func checkValues(values int) error {
	if values < 1 || values > 4 {
		return fmt.Errorf("faust: values %d out of 1..4", values)
	}
	return nil
}
