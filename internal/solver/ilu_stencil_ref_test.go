package solver

// referenceStencilApply is the stencil ILU(0) apply that the line-pair
// sweeps replaced, kept as the reference they must match bit for bit, up
// to the sign of an exact zero. Rows within nxy of either end take a
// guarded per-entry loop; all other rows take three-term kernels that
// reload every neighbour, the nearest one included, from z.
func referenceStencilApply(s *stencilLU, z, r []float64) {
	n := len(s.rpiv)
	lo, up := [3]int{-s.nxy, -s.nx, -1}, [3]int{1, s.nx, s.nxy}
	l, u := &s.l, &s.u

	// Forward solve L y = r (unit diagonal): row i reaches lo[j] when
	// i+lo[j] >= 0.
	head := min(-lo[0], n)
	for i := 0; i < head; i++ {
		v := r[i]
		for j := 0; j < 3; j++ {
			if c := i + lo[j]; c >= 0 {
				v -= l[j][i] * z[c]
			}
		}
		z[i] = v
	}
	referenceForward3(z, r, l[0], l[1], l[2], lo[0], lo[1], lo[2], head, n)

	// Backward solve U z = y: row i reaches up[j] when i+up[j] < n.
	tail := max(n-up[2], 0)
	for i := n - 1; i >= tail; i-- {
		v := z[i]
		for j := 2; j >= 0; j-- {
			if c := i + up[j]; c < n {
				v -= u[j][i] * z[c]
			}
		}
		z[i] = v * s.rpiv[i]
	}
	referenceBackward3(z, u[0], u[1], u[2], s.rpiv, up[0], up[1], up[2], 0, tail)
}

func referenceForward3(z, r, l0, l1, l2 []float64, o0, o1, o2, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := r[i]
		v -= l0[i] * z[i+o0]
		v -= l1[i] * z[i+o1]
		v -= l2[i] * z[i+o2]
		z[i] = v
	}
}

func referenceBackward3(z, u0, u1, u2, rpiv []float64, o0, o1, o2, lo, hi int) {
	for i := hi - 1; i >= lo; i-- {
		v := z[i]
		v -= u2[i] * z[i+o2]
		v -= u1[i] * z[i+o1]
		v -= u0[i] * z[i+o0]
		z[i] = v * rpiv[i]
	}
}

// ReferenceILUApply applies f's stencil factor with referenceStencilApply.
// It reports false, leaving z untouched, when f keeps the generic CSR
// factor.
func ReferenceILUApply(f *ILU0, z, r []float64) bool {
	if f.st == nil {
		return false
	}
	referenceStencilApply(f.st, z, r)
	return true
}
