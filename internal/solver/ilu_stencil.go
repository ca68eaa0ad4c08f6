package solver

// stencilLU is an ILU(0) factor on a 7-point stencil pattern with column
// offsets lo[0] < lo[1] < lo[2] < 0 < up[0] < up[1] < up[2], stored
// diagonal-major: l[j][i] = L(i, i+lo[j]) and u[j][i] = U(i, i+up[j]),
// zero where row i stores no such entry, plus the reciprocal pivots
// 1/U(i, i). The sweeps then read three coefficient streams and three
// windows of z per triangle, with no column-index loads.
type stencilLU struct {
	lo, up [3]int
	l, u   [3][]float64
	rpiv   []float64
}

// newStencilLU copies the CSR factor f, whose pattern has the seven
// ascending offsets off with off[3] == 0, into the diagonal-major layout.
func newStencilLU(f *ILU0, off [7]int) *stencilLU {
	n := f.n
	buf := make([]float64, 7*n)
	s := &stencilLU{
		lo:   [3]int{off[0], off[1], off[2]},
		up:   [3]int{off[4], off[5], off[6]},
		rpiv: buf[6*n:],
	}
	for j := 0; j < 3; j++ {
		s.l[j] = buf[j*n : (j+1)*n]
		s.u[j] = buf[(3+j)*n : (4+j)*n]
	}
	for i := 0; i < n; i++ {
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			d := f.cols[k] - i
			switch {
			case d == 0:
				s.rpiv[i] = 1 / f.vals[k]
			case d < 0:
				s.l[slot(&s.lo, d)][i] = f.vals[k]
			default:
				s.u[slot(&s.up, d)][i] = f.vals[k]
			}
		}
	}
	return s
}

// slot returns the index of offset d in offs.
func slot(offs *[3]int, d int) int {
	j := 0
	for offs[j] != d {
		j++
	}
	return j
}

// apply solves (LU) z = r. The forward sweep subtracts the lower
// neighbours in ascending column order, like the generic sweep; a
// zero-padded coefficient subtracts an exact zero, so for finite inputs
// it matches the generic sweep bit for bit, up to the sign of an entry
// that is exactly zero. The backward sweep subtracts the far neighbours
// first and multiplies by the reciprocal pivot, which keeps the division
// and the nearest, just-computed neighbour off the dependency chain; it
// differs from the generic sweep by rounding only.
//
// Rows within max|offset| of either end have neighbours outside [0, n)
// and take a guarded loop; all other rows take the three-term kernels.
func (s *stencilLU) apply(z, r []float64) {
	n := len(s.rpiv)
	lo, up, l, u := &s.lo, &s.up, &s.l, &s.u

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
	forward3(z, r, l[0], l[1], l[2], lo[0], lo[1], lo[2], head, n)

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
	backward3(z, u[0], u[1], u[2], s.rpiv, up[0], up[1], up[2], 0, tail)
}

// forward3 runs the forward sweep over rows [lo, hi) with all three lower
// neighbours in range.
func forward3(z, r, l0, l1, l2 []float64, o0, o1, o2, lo, hi int) {
	if lo >= hi {
		return
	}
	zz := z[lo:hi]
	n := len(zz)
	rr := r[lo:hi][:n]
	a0, a1, a2 := l0[lo:hi][:n], l1[lo:hi][:n], l2[lo:hi][:n]
	z0, z1, z2 := z[lo+o0 : hi+o0][:n], z[lo+o1 : hi+o1][:n], z[lo+o2 : hi+o2][:n]
	for t := range zz {
		v := rr[t]
		v -= a0[t] * z0[t]
		v -= a1[t] * z1[t]
		v -= a2[t] * z2[t]
		zz[t] = v
	}
}

// backward3 runs the backward sweep over rows [lo, hi), descending, with
// all three upper neighbours in range.
func backward3(z, u0, u1, u2, rpiv []float64, o0, o1, o2, lo, hi int) {
	if lo >= hi {
		return
	}
	zz := z[lo:hi]
	n := len(zz)
	p := rpiv[lo:hi][:n]
	b0, b1, b2 := u0[lo:hi][:n], u1[lo:hi][:n], u2[lo:hi][:n]
	z0, z1, z2 := z[lo+o0 : hi+o0][:n], z[lo+o1 : hi+o1][:n], z[lo+o2 : hi+o2][:n]
	for t := n - 1; t >= 0; t-- {
		v := zz[t]
		v -= b2[t] * z2[t]
		v -= b1[t] * z1[t]
		v -= b0[t] * z0[t]
		zz[t] = v * p[t]
	}
}
