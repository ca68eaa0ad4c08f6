package solver

import "lcn3d/internal/sparse"

// Rung identifies a step of the solver escalation ladder the thermal and
// flow models climb when a solve fails (breakdown, non-convergence, or a
// non-finite result):
//
//	RungPrimary  the model's normal method (BiCGSTAB for the thermal
//	             system, CG for the SPD flow system)
//	RungRetry    the first fallback: rebuilt preconditioner + cold
//	             restart for thermal, BiCGSTAB for flow
//	RungGMRES    restarted GMRES from a cold start
//	RungDense    dense LU, only for systems up to DenseFallbackMax
//
// A solve whose result came from RungGMRES or RungDense is "degraded":
// correct within tolerance, but produced by a method outside the normal
// operating envelope. Callers surface that as a flag so clients can tell
// a routine answer from one that needed the ladder.
type Rung int

// The escalation ladder, in climb order.
const (
	RungPrimary Rung = iota
	RungRetry
	RungGMRES
	RungDense
	NumRungs
)

func (r Rung) String() string {
	switch r {
	case RungPrimary:
		return "primary"
	case RungRetry:
		return "retry"
	case RungGMRES:
		return "gmres"
	case RungDense:
		return "dense"
	}
	return "unknown"
}

// Degraded reports whether a result produced at this rung should be
// flagged degraded (see Rung).
func (r Rung) Degraded() bool { return r >= RungGMRES }

// DenseFallbackMax is the largest system size the dense LU rung accepts:
// O(n²) memory and O(n³) time keep it a last resort for small systems
// (reduced-scale cases, coarse 2RM grids), where it is still far better
// than failing the request.
const DenseFallbackMax = 1500

// RelResidual returns ||b - A·x|| / ||b|| (0 when b is zero), used to
// report a Result for direct solves that have no iteration count.
func RelResidual(a *sparse.CSR, b, x []float64) float64 {
	r := make([]float64, a.N)
	a.MulVecAuto(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bn := Norm2(b)
	if bn == 0 {
		return 0
	}
	return Norm2(r) / bn
}
