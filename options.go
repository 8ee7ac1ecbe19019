package multival

import (
	"multival/internal/bisim"
	"multival/internal/engine"
	"multival/internal/imc"
	"multival/internal/markov"
	"multival/internal/process"
)

// Scheduler resolves internal nondeterminism during CTMC extraction; see
// imc.Scheduler. Configure one with WithScheduler.
type Scheduler = imc.Scheduler

// UniformScheduler resolves nondeterminism by choosing uniformly among
// the instantaneous alternatives.
type UniformScheduler = imc.UniformScheduler

// Progress is a snapshot of a long-running operation, delivered to the
// callback installed with WithProgress: states explored during
// generation/composition, refinement rounds and block counts, solver
// sweeps and residuals. See the Stage field for the operation name.
type Progress = engine.Progress

// ProgressFunc observes Progress snapshots. It may be called from
// whichever goroutine runs the operation (pipelines minimize operands
// concurrently), so implementations must be safe for concurrent use.
type ProgressFunc = engine.ProgressFunc

// Options is the one tuning surface of the engine: worker counts,
// state-space bounds, scheduler selection and progress observation, all
// threaded from here through bisim, compose, imc, process and markov.
// Build one with NewEngine and the With* functional options. Solver
// kernels, tolerances and iteration budgets are not options: markov
// picks each system's kernel from its structure and fixes them.
type Options struct {
	// Workers is the goroutine count of the parallel engines: the
	// signature-refinement rounds, the sharded product generation of
	// compositions (0 = GOMAXPROCS for both) and the row-sharded solver
	// kernels (0 or 1 = sequential). It shards work and never changes a
	// result: products, partitions and measures are identical at every
	// worker count.
	Workers int
	// MaxStates bounds every state-space generation (DSL exploration,
	// synchronized products, delay decoration). 0 selects the package
	// defaults (1<<20 states).
	MaxStates int
	// Scheduler resolves internal nondeterminism during CTMC
	// extraction; nil rejects nondeterministic models with
	// ErrNondeterministic.
	Scheduler Scheduler
	// Progress, when non-nil, observes every long-running operation.
	Progress ProgressFunc
}

// Option mutates Options; pass them to NewEngine.
type Option func(*Options)

// WithWorkers sets the worker count of the refinement engine, of sharded
// product generation (0 = GOMAXPROCS) and of the row-sharded solver
// kernels. It shards work and never changes a result.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithMaxStates bounds state-space generation; exceeding it yields an
// error wrapping ErrStateBound.
func WithMaxStates(n int) Option { return func(o *Options) { o.MaxStates = n } }

// WithScheduler resolves internal nondeterminism during CTMC extraction.
func WithScheduler(s Scheduler) Option { return func(o *Options) { o.Scheduler = s } }

// WithProgress installs a progress observer. The callback must be safe
// for concurrent use: pipeline stages may report from several goroutines.
func WithProgress(f ProgressFunc) Option { return func(o *Options) { o.Progress = f } }

// bisim converts the facade options into refinement-engine options.
func (o Options) bisim() bisim.Options {
	return bisim.Options{Workers: o.Workers, Progress: o.Progress}
}

// gen converts the facade options into generation options.
func (o Options) gen() process.GenOptions {
	return process.GenOptions{MaxStates: o.MaxStates, Progress: o.Progress}
}

// solve converts the facade options into solver options; ctx is attached
// per call by the facade methods.
func (o Options) solve() markov.SolveOptions {
	return markov.SolveOptions{
		Workers:  o.Workers,
		Progress: o.Progress,
	}
}
