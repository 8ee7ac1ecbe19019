package multival

import "multival/internal/markov"

// SolverFallbacks counts solver-kernel downgrades since process start:
// every stationary Gauss–Seidel solve that stagnated into the damped
// Jacobi kernel, and every BiCGSTAB solve that broke down or stalled and
// fell back to sweeps. A chain family that suddenly starts breaking the
// Krylov kernel shows up here (surfaced in GET /v1/stats) long before
// anyone reads solver logs.
type SolverFallbacks struct {
	GSToJacobi       int64 `json:"gs_to_jacobi"`
	BiCGSTABToJacobi int64 `json:"bicgstab_to_jacobi"`
}

// SolverFallbackStats returns the process-wide solver fallback counters.
func SolverFallbackStats() SolverFallbacks {
	fs := markov.Fallbacks()
	return SolverFallbacks{
		GSToJacobi:       fs.GSToJacobi,
		BiCGSTABToJacobi: fs.BiCGSTABToJacobi,
	}
}
