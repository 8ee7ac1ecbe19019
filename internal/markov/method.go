package markov

import "sync/atomic"

// Kernel names reported in ConvergenceError.Method and .Fallback. The
// kernel is chosen per linear system from its structure, never from an
// option:
//
//   - Stationary balance systems (singular, one per BSCC) run in-place
//     Gauss–Seidel sweeps at every size: on an irreducible chain they
//     converge in tens of sweeps, which no Krylov iteration count beats.
//     A sweep that stagnates (its order fighting the cycle structure)
//     switches to damped Jacobi, semiconvergent on every irreducible
//     component.
//   - Hitting-type systems (absorption weights, expected first passage)
//     are solved block by block over the SCC decomposition: blocks of
//     at least krylovMinStates unknowns run BiCGSTAB, smaller ones
//     Gauss–Seidel. A Krylov breakdown or stall falls back to damped
//     Jacobi sweeps.
//   - The Poisson (bias) equation runs one deflated BiCGSTAB solve when
//     the system has at least krylovMinStates unknowns and no absorbing
//     boundary, and damped Jacobi sweeps otherwise.
//
// SolveOptions.Workers only shards the kernels whose result does not
// depend on the sharding (the BiCGSTAB matvec and the damped-Jacobi
// sweeps), so the worker count never changes a result.
const (
	kernelGS       = "gs"
	kernelJacobi   = "jacobi"
	kernelBiCGSTAB = "bicgstab"
)

// krylovMinStates is the Krylov threshold: below it the setup and
// per-iteration vector overhead of BiCGSTAB outweighs the sweep count it
// saves, so small blocks keep Gauss–Seidel.
const krylovMinStates = 128

// krylovIterCap, when positive, caps BiCGSTAB iterations below the
// options budget; tests force it to 1 to drive the fallback path on
// systems the kernel would otherwise solve.
var krylovIterCap = 0

// krylovMaxIter bounds one BiCGSTAB attempt: the options budget, but
// never more than n+300 iterations — a Krylov method that has not
// converged within the system dimension will not, and the damped-Jacobi
// fallback still has the full budget after it.
func krylovMaxIter(opts SolveOptions, n int) int {
	max := n + 300
	if opts.MaxIterations < max {
		max = opts.MaxIterations
	}
	if krylovIterCap > 0 && krylovIterCap < max {
		max = krylovIterCap
	}
	return max
}

// Process-wide fallback counters: every kernel downgrade is counted so
// the serve layer can surface solver regressions (a chain family that
// suddenly starts breaking down shows up in GET /v1/stats).
var (
	nFallbackGSJacobi     atomic.Int64
	nFallbackKrylovJacobi atomic.Int64
)

// FallbackStats counts solver-kernel fallbacks since process start.
type FallbackStats struct {
	// GSToJacobi counts stationary Gauss–Seidel sweeps that stagnated
	// (sweep order fighting the cycle structure) and switched to the
	// damped Jacobi kernel.
	GSToJacobi int64
	// BiCGSTABToJacobi counts Krylov solves that broke down (rho ≈ 0) or
	// stalled and fell back to damped Jacobi sweeps.
	BiCGSTABToJacobi int64
}

// Fallbacks returns the process-wide fallback counters.
func Fallbacks() FallbackStats {
	return FallbackStats{
		GSToJacobi:       nFallbackGSJacobi.Load(),
		BiCGSTABToJacobi: nFallbackKrylovJacobi.Load(),
	}
}
