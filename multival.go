// Package multival is a Go reproduction of the tool flow described in
// "Quantitative Evaluation in Embedded System Design: Validation of
// Multiprocessor Multithreaded Architectures" (Coste, Garavel, Hermanns,
// Hersemeule, Thonnart, Zidouni — DATE 2008): formal modeling of
// asynchronous multiprocessor architectures, functional verification by
// model checking and equivalence checking, and performance evaluation via
// Interactive Markov Chains.
//
// # Engine-first API
//
// The package is organized around three types:
//
//   - Engine owns the options (workers, state bounds, scheduler,
//     progress observer) and threads them — together with the
//     caller's context.Context — through every operation. Long-running
//     operations check cancellation at round boundaries (worklist chunks,
//     refinement rounds, solver sweeps) and report Progress snapshots.
//   - Model wraps an LTS obtained from the LOTOS-like DSL, from the CHP
//     front-end, or from one of the case-study generators. The Engine
//     minimizes and compares Models (Engine.Minimize, Engine.Compare) and
//     Model offers model checking — the paper's functional verification
//     flow (§3).
//   - PerfModel wraps an IMC obtained by decorating a Model with
//     phase-type delays and offers lumping, CTMC extraction, steady-state
//     and transient measures — the performance evaluation flow (§4). A
//     PerfModel caches the maximal-progress IMC and the extracted CTMC,
//     so SteadyState, Transient and MeanTimeTo share one extraction.
//
// Pipeline strings the steps together declaratively and executes them
// lazily (minimizing composition operands concurrently):
//
//	eng := multival.NewEngine(multival.WithWorkers(8))
//	ms, err := eng.Compose(a, b).
//	    Sync("mid").Hide("mid").
//	    Minimize(multival.Branching).
//	    DecorateGateRates(map[string]float64{"put": 1, "get": 2}, "get").
//	    Lump().
//	    Solve(ctx)
//
// Every facade method returns its error; failures wrap the typed
// sentinels in errors.go (ErrStateBound, ErrNondeterministic,
// ErrNotIrreducible, ErrNoConvergence, ErrZeno), so callers classify them
// with errors.Is.
package multival

import (
	"fmt"

	"multival/internal/bisim"
	"multival/internal/imc"
	"multival/internal/lts"
	"multival/internal/phasetype"
)

// Relation re-exports the behavioural equivalences.
type Relation = bisim.Relation

// Supported equivalences.
const (
	Strong       = bisim.Strong
	Branching    = bisim.Branching
	DivBranching = bisim.DivBranching
	Trace        = bisim.Trace
)

// ParseRelation maps the conventional external spelling of an equivalence
// (CLI flags, HTTP request fields) to its Relation.
func ParseRelation(s string) (Relation, error) {
	switch s {
	case "strong":
		return Strong, nil
	case "branching":
		return Branching, nil
	case "divbranching":
		return DivBranching, nil
	case "trace":
		return Trace, nil
	default:
		return 0, fmt.Errorf("unknown relation %q (want strong | branching | divbranching | trace)", s)
	}
}

// Gate returns the gate of a transition label following LOTOS
// conventions: the prefix before the first space ("get !1" -> "get").
// Use it to group Measures.Throughputs entries per gate.
func Gate(label string) string { return lts.Gate(label) }

// Delay describes a delay to attach during decoration: the model must
// expose the start and end of the delay as gates (the paper's
// compositional decoration), and the duration is a phase-type
// distribution.
type Delay = imc.Delay

// Exp is a convenience constructor for exponential delays.
func Exp(rate float64) *phasetype.Distribution { return phasetype.Exp(rate) }

// Erlang is a convenience constructor for Erlang delays.
func Erlang(k int, rate float64) *phasetype.Distribution { return phasetype.Erlang(k, rate) }

// FixedDelay approximates a deterministic delay with an Erlang-k
// distribution (mean exact, variance 1/k of exponential).
func FixedDelay(d float64, k int) (*phasetype.Distribution, error) {
	return phasetype.FitFixedDelay(d, k)
}
