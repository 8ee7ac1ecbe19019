package process

import (
	"context"
	"fmt"

	"multival/internal/engine"
	"multival/internal/lts"
)

// ProcDef is a named, parameterized process definition.
type ProcDef struct {
	Name   string
	Params []string
	Body   Behavior
}

// System is a collection of process definitions plus a root behaviour,
// corresponding to a LOTOS specification.
type System struct {
	Name string
	Defs map[string]*ProcDef
	Root Behavior
}

// NewSystem creates an empty system with the given name.
func NewSystem(name string) *System {
	return &System{Name: name, Defs: make(map[string]*ProcDef)}
}

// Define registers a process definition, replacing any previous definition
// with the same name, and returns the system for chaining.
func (s *System) Define(name string, params []string, body Behavior) *System {
	s.Defs[name] = &ProcDef{Name: name, Params: params, Body: body}
	return s
}

// SetRoot sets the root behaviour and returns the system for chaining.
func (s *System) SetRoot(b Behavior) *System {
	s.Root = b
	return s
}

// GenOptions configures state-space generation.
type GenOptions struct {
	// MaxStates bounds the exploration; 0 means DefaultMaxStates.
	// Exceeding the bound is an error (state-space explosion guard).
	MaxStates int
	// Progress, when non-nil, observes exploration milestones (stage
	// "generate", states explored so far).
	Progress engine.ProgressFunc
}

// DefaultMaxStates is the generation bound used when GenOptions.MaxStates
// is zero.
const DefaultMaxStates = 1 << 20

// ExplosionError reports that generation exceeded the state bound.
type ExplosionError struct {
	Bound int
}

func (e *ExplosionError) Error() string {
	return fmt.Sprintf("process: state space exceeds %d states", e.Bound)
}

// Unwrap classifies the error as the shared state-bound sentinel, so
// errors.Is(err, engine.ErrStateBound) holds.
func (e *ExplosionError) Unwrap() error { return engine.ErrStateBound }

// genCheckEvery is the number of worklist states between cancellation
// checks and progress reports during generation.
const genCheckEvery = 1024

// GenerateCtx explores the state space of the system's root behaviour and
// returns it as an LTS. Two reachable terms are the same state iff their
// canonical strings (Behavior.String) are equal; a per-call hash-consed
// store keys that identity structurally for Par, Hide and Rename, so
// global states are never printed (see store). Exploration is
// breadth-first and each state's transitions keep their derivation order,
// so state numbering and the label table are deterministic.
//
// The exploration worklist checks ctx every genCheckEvery states and
// returns ctx.Err() (wrapped) when the context is done, so a deadline or
// cancel aborts generation mid-worklist rather than after the fact. Calls
// on one System may run concurrently: each call owns its term store.
func (s *System) GenerateCtx(ctx context.Context, opts GenOptions) (*lts.LTS, error) {
	if s.Root == nil {
		return nil, fmt.Errorf("process: system %q has no root behaviour", s.Name)
	}
	bound := opts.MaxStates
	if bound == 0 {
		bound = DefaultMaxStates
	}

	st := newStore(s.Defs)
	l := lts.New(s.Name)
	var queue []int32 // LTS state -> term ID

	intern := func(id int32) (lts.State, error) {
		e := &st.ent[id]
		if e.state >= 0 {
			return e.state, nil
		}
		if len(queue) >= bound {
			return 0, &ExplosionError{bound}
		}
		e.state = l.AddState()
		queue = append(queue, id)
		return e.state, nil
	}
	ltsLabel := func(id int32) int {
		a := &st.acts[id]
		if a.ltsID < 0 {
			a.ltsID = l.LabelID(a.label)
		}
		return a.ltsID
	}

	if _, err := intern(st.intern(s.Root)); err != nil {
		return nil, err
	}
	l.SetInitial(0)

	for qi := 0; qi < len(queue); qi++ {
		if qi%genCheckEvery == 0 {
			if err := engine.Canceled(ctx); err != nil {
				return nil, fmt.Errorf("process: generation canceled at %d states: %w", len(queue), err)
			}
			opts.Progress.Report(engine.Progress{Stage: "generate", States: len(queue)})
		}
		src := lts.State(qi)
		ms, err := st.movesOf(queue[qi], 0)
		if err != nil {
			return nil, fmt.Errorf("state %d: %w", qi, err)
		}
		for _, m := range ms {
			dst, err := intern(m.next)
			if err != nil {
				return nil, err
			}
			l.AddTransitionID(src, ltsLabel(m.act), dst)
		}
	}
	return l, nil
}
