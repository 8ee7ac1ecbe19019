package multival

import "multival/internal/engine"

// Typed sentinel errors. Every error escaping the facade that stems from
// one of these failure modes wraps the corresponding sentinel, so callers
// classify failures with errors.Is regardless of which layer produced
// them:
//
//	m, err := eng.FromLOTOS(ctx, src)
//	switch {
//	case errors.Is(err, multival.ErrStateBound):
//	    // raise WithMaxStates or decompose the model
//	case errors.Is(err, context.DeadlineExceeded):
//	    // ctx expired: generation stopped mid-worklist
//	}
//
// Cancellation is reported through the standard context errors
// (context.Canceled, context.DeadlineExceeded), wrapped with the stage
// that observed them.
var (
	// ErrStateBound: state-space generation (DSL exploration or a
	// synchronized product) exceeded the configured state bound.
	ErrStateBound = engine.ErrStateBound
	// ErrNondeterministic: CTMC extraction found a state offering
	// several instantaneous alternatives and no scheduler was
	// configured (see WithScheduler).
	ErrNondeterministic = engine.ErrNondeterministic
	// ErrNotIrreducible: a Markov analysis required reachability the
	// chain does not have (e.g. MeanTimeTo from a state that can never
	// reach the labeled transition).
	ErrNotIrreducible = engine.ErrNotIrreducible
	// ErrNoConvergence: an iterative solver (stationary sweeps, the
	// projected bias sweeps, or the fallback of a stalled BiCGSTAB solve
	// on a block of 128 states or more; smaller blocks are solved
	// directly) exhausted its fixed budget of 1,000,000 sweeps.
	ErrNoConvergence = engine.ErrNoConvergence
	// ErrZeno: the model contains a cycle of instantaneous transitions
	// (tau livelock), which has no timed semantics.
	ErrZeno = engine.ErrZeno
)
