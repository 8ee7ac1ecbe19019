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
//   - Nonsingular block systems — hitting-type systems (absorption
//     weights, expected first passage) block by block over the SCC
//     decomposition, and the deflated Poisson (bias) system — are
//     solved directly by GTH elimination below krylovMinStates unknowns
//     (no iteration, so never a ConvergenceError) and by BiCGSTAB at or
//     above it. A Krylov breakdown or stall falls back to damped Jacobi
//     sweeps.
//   - The Poisson equation of a chain with an absorbing boundary runs
//     projected damped Jacobi sweeps.
//
// SolveOptions.Workers only shards the kernels whose result does not
// depend on the sharding (the BiCGSTAB matvec and the damped-Jacobi
// sweeps), so the worker count never changes a result.
const (
	kernelGS       = "gs"
	kernelJacobi   = "jacobi"
	kernelBiCGSTAB = "bicgstab"
)

// tolerance and maxIterations bound every iterative kernel: the sweep
// delta (relative to ‖h‖ in the bias sweep, to ‖x‖ in BiCGSTAB's scaled
// residual) and the sweeps of one solve. Tests lower iterationBudget to
// drive the ConvergenceError paths.
const (
	tolerance     = 1e-12
	maxIterations = 1_000_000
)

var iterationBudget = maxIterations

// krylovMinStates is the size switch of the nonsingular block systems:
// below it a dense GTH elimination costs at most (2/3)·127³ ≈ 1.4 Mflop
// and needs no iteration, so only larger blocks run BiCGSTAB.
const krylovMinStates = 128

// krylovIterCap, when positive, caps BiCGSTAB iterations below the
// iteration budget; tests force it to 1 to drive the fallback path on
// systems the kernel would otherwise solve.
var krylovIterCap = 0

// krylovMaxIter bounds one BiCGSTAB attempt: the iteration budget, but
// never more than n+300 iterations — a Krylov method that has not
// converged within the system dimension will not, and the damped-Jacobi
// fallback still has the full budget after it.
func krylovMaxIter(n int) int {
	max := n + 300
	if iterationBudget < max {
		max = iterationBudget
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
