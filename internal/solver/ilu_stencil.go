package solver

// stencilLU is an ILU(0) factor on the 7-point stencil of a layered grid:
// nx unknowns per line and nxy per layer, numbered line by line and layer
// by layer, so row i couples only to i±1, i±nx and i±nxy. It is stored
// diagonal-major: l[0], l[1], l[2] hold L(i, i−nxy), L(i, i−nx), L(i, i−1)
// and u[0], u[1], u[2] hold U(i, i+1), U(i, i+nx), U(i, i+nxy), zero where
// row i stores no such entry, plus the reciprocal pivots 1/U(i, i). The
// sweeps read three coefficient streams per triangle, with no column-index
// loads.
//
// The factor has no −1 entry at the start of a line and no +1 entry at its
// end, so the recurrences of two consecutive lines meet only through the
// ±nx term. The sweeps run lines in pairs, the second one row behind the
// first, and carry each line's last row in a register for the ∓1 term and
// for the other line's ±nx term: the two dependency chains overlap and
// neither waits on a store-to-load round trip through z.
type stencilLU struct {
	nx, nxy int
	l, u    [3][]float64
	rpiv    []float64
}

// newStencilLU copies the CSR factor f, whose pattern has the seven
// ascending offsets off, into the diagonal-major layout. It returns nil
// unless the offsets are {0, ±1, ±nx, ±nxy} with nxy a multiple of nx and
// n a multiple of nxy, and the factor couples no line start to the row
// before it and no line end to the row after it; the caller then keeps
// the generic CSR factor.
func newStencilLU(f *ILU0, off [7]int) *stencilLU {
	n, nx, nxy := f.n, off[5], off[6]
	if off != [7]int{-nxy, -nx, -1, 0, 1, nx, nxy} || nxy%nx != 0 || n%nxy != 0 {
		return nil
	}
	buf := make([]float64, 7*n)
	s := &stencilLU{nx: nx, nxy: nxy, rpiv: buf[6*n:]}
	for j := 0; j < 3; j++ {
		s.l[j] = buf[j*n : (j+1)*n]
		s.u[j] = buf[(3+j)*n : (4+j)*n]
	}
	for i := 0; i < n; i++ {
		for k := f.rowPtr[i]; k < f.rowPtr[i+1]; k++ {
			switch d := f.cols[k] - i; d {
			case 0:
				s.rpiv[i] = 1 / f.vals[k]
			case -nxy, -nx, -1:
				s.l[slot(off[:3], d)][i] = f.vals[k]
			default:
				s.u[slot(off[4:], d)][i] = f.vals[k]
			}
		}
	}
	for i := 0; i < n; i += nx {
		if s.l[2][i] != 0 || s.u[0][i+nx-1] != 0 {
			return nil
		}
	}
	return s
}

// slot returns the index of offset d in offs.
func slot(offs []int, d int) int {
	j := 0
	for offs[j] != d {
		j++
	}
	return j
}

// apply solves (LU) z = r. Every row subtracts its far neighbours first
// and its nearest, just-computed neighbour last; the backward sweep then
// multiplies by the reciprocal pivot. The first and last layers have no
// ∓nxy neighbour and their first and last lines no ∓nx neighbour either,
// so they take kernels without those terms. The first row of a line in
// sweep order has a zero ∓1 coefficient and a carried value of 0, so its
// ∓1 term subtracts 0·0. The result is the row-by-row sweep's bit for
// bit, up to the sign of an exact zero.
func (s *stencilLU) apply(z, r []float64) {
	n, nx, nxy := len(s.rpiv), s.nx, s.nxy
	l, u, p := &s.l, &s.u, s.rpiv

	// Forward solve L y = r (unit diagonal).
	forwardFirstLine(z[:nx], r[:nx], l[2][:nx])
	forward2(z, r, l, nx, nx, nxy)
	forward3(z, r, l, nx, nxy, nxy, n)

	// Backward solve U z = y.
	backwardLastLine(z[n-nx:], u[0][n-nx:], p[n-nx:])
	backward2(z, u, p, nx, n-nxy, n-nx)
	backward3(z, u, p, nx, nxy, 0, n-nxy)
}

// sub2 and sub3 return v − a·x − b·y (− c·w), subtracting in that order.
func sub2(v, a, x, b, y float64) float64 {
	v -= a * x
	v -= b * y
	return v
}

func sub3(v, a, x, b, y, c, w float64) float64 {
	v -= a * x
	v -= b * y
	v -= c * w
	return v
}

// forwardFirstLine runs the forward sweep over the first line of the
// first layer, whose rows have only the −1 neighbour.
func forwardFirstLine(z, r, l2 []float64) {
	r, l2 = r[:len(z)], l2[:len(z)]
	var p float64
	for t := range z {
		p = r[t] - l2[t]*p
		z[t] = p
	}
}

// forward2 runs the forward sweep over the lines in rows [lo, hi) of the
// first layer, whose rows have the −nx and −1 neighbours.
func forward2(z, r []float64, l *[3][]float64, nx, lo, hi int) {
	a := lo
	for ; a+2*nx <= hi; a += 2 * nx {
		b := a + nx
		za, zb := z[a:b], z[b:b+nx]
		m := len(za)
		zb = zb[:m]
		ya := z[a-nx : a][:m]
		ra, rb := r[a:b][:m], r[b : b+nx][:m]
		a1, a2 := l[1][a:b][:m], l[2][a:b][:m]
		b1, b2 := l[1][b : b+nx][:m], l[2][b : b+nx][:m]
		pa := sub2(ra[0], a1[0], ya[0], a2[0], 0)
		za[0] = pa
		var pb float64
		for t := 1; t < m; t++ {
			vb := sub2(rb[t-1], b1[t-1], pa, b2[t-1], pb)
			va := sub2(ra[t], a1[t], ya[t], a2[t], pa)
			zb[t-1], pb = vb, vb
			za[t], pa = va, va
		}
		zb[m-1] = sub2(rb[m-1], b1[m-1], pa, b2[m-1], pb)
	}
	if a < hi {
		za := z[a : a+nx]
		m := len(za)
		ya := z[a-nx : a][:m]
		ra, a1, a2 := r[a : a+nx][:m], l[1][a : a+nx][:m], l[2][a : a+nx][:m]
		var pa float64
		for t := range za {
			pa = sub2(ra[t], a1[t], ya[t], a2[t], pa)
			za[t] = pa
		}
	}
}

// forward3 runs the forward sweep over the lines in rows [lo, hi), which
// have all three lower neighbours.
func forward3(z, r []float64, l *[3][]float64, nx, nxy, lo, hi int) {
	a := lo
	for ; a+2*nx <= hi; a += 2 * nx {
		b := a + nx
		za, zb := z[a:b], z[b:b+nx]
		m := len(za)
		zb = zb[:m]
		ya := z[a-nx : a][:m]
		fa, fb := z[a-nxy : b-nxy][:m], z[b-nxy : b+nx-nxy][:m]
		ra, rb := r[a:b][:m], r[b : b+nx][:m]
		a0, a1, a2 := l[0][a:b][:m], l[1][a:b][:m], l[2][a:b][:m]
		b0, b1, b2 := l[0][b : b+nx][:m], l[1][b : b+nx][:m], l[2][b : b+nx][:m]
		pa := sub3(ra[0], a0[0], fa[0], a1[0], ya[0], a2[0], 0)
		za[0] = pa
		var pb float64
		for t := 1; t < m; t++ {
			vb := sub3(rb[t-1], b0[t-1], fb[t-1], b1[t-1], pa, b2[t-1], pb)
			va := sub3(ra[t], a0[t], fa[t], a1[t], ya[t], a2[t], pa)
			zb[t-1], pb = vb, vb
			za[t], pa = va, va
		}
		zb[m-1] = sub3(rb[m-1], b0[m-1], fb[m-1], b1[m-1], pa, b2[m-1], pb)
	}
	if a < hi {
		za := z[a : a+nx]
		m := len(za)
		ya, fa := z[a-nx : a][:m], z[a-nxy : a+nx-nxy][:m]
		ra := r[a : a+nx][:m]
		a0, a1, a2 := l[0][a : a+nx][:m], l[1][a : a+nx][:m], l[2][a : a+nx][:m]
		var pa float64
		for t := range za {
			pa = sub3(ra[t], a0[t], fa[t], a1[t], ya[t], a2[t], pa)
			za[t] = pa
		}
	}
}

// backwardLastLine runs the backward sweep over the last line of the last
// layer, whose rows have only the +1 neighbour.
func backwardLastLine(z, u0, p []float64) {
	u0, p = u0[:len(z)], p[:len(z)]
	var q float64
	for t := len(z) - 1; t >= 0; t-- {
		q = (z[t] - u0[t]*q) * p[t]
		z[t] = q
	}
}

// backward2 runs the backward sweep, descending, over the lines in rows
// [lo, hi) of the last layer, whose rows have the +1 and +nx neighbours.
// The upper line of each pair leads; the lower one follows a row behind.
func backward2(z []float64, u *[3][]float64, p []float64, nx, lo, hi int) {
	a := hi - nx
	for ; a-nx >= lo; a -= 2 * nx {
		b := a - nx
		za, zb := z[a:a+nx], z[b:a]
		m := len(za)
		zb = zb[:m]
		ya := z[a+nx : a+2*nx][:m]
		pa, pb := p[a : a+nx][:m], p[b:a][:m]
		a0, a1 := u[0][a : a+nx][:m], u[1][a : a+nx][:m]
		b0, b1 := u[0][b:a][:m], u[1][b:a][:m]
		qa := sub2(za[m-1], a1[m-1], ya[m-1], a0[m-1], 0) * pa[m-1]
		za[m-1] = qa
		var qb float64
		for t := m - 2; t >= 0; t-- {
			vb := sub2(zb[t+1], b1[t+1], qa, b0[t+1], qb) * pb[t+1]
			va := sub2(za[t], a1[t], ya[t], a0[t], qa) * pa[t]
			zb[t+1], qb = vb, vb
			za[t], qa = va, va
		}
		zb[0] = sub2(zb[0], b1[0], qa, b0[0], qb) * pb[0]
	}
	if a >= lo {
		za := z[a : a+nx]
		m := len(za)
		ya, pa := z[a+nx : a+2*nx][:m], p[a : a+nx][:m]
		a0, a1 := u[0][a : a+nx][:m], u[1][a : a+nx][:m]
		var qa float64
		for t := m - 1; t >= 0; t-- {
			qa = sub2(za[t], a1[t], ya[t], a0[t], qa) * pa[t]
			za[t] = qa
		}
	}
}

// backward3 runs the backward sweep, descending, over the lines in rows
// [lo, hi), which have all three upper neighbours.
func backward3(z []float64, u *[3][]float64, p []float64, nx, nxy, lo, hi int) {
	a := hi - nx
	for ; a-nx >= lo; a -= 2 * nx {
		b := a - nx
		za, zb := z[a:a+nx], z[b:a]
		m := len(za)
		zb = zb[:m]
		ya := z[a+nx : a+2*nx][:m]
		fa, fb := z[a+nxy : a+nx+nxy][:m], z[b+nxy : a+nxy][:m]
		pa, pb := p[a : a+nx][:m], p[b:a][:m]
		a0, a1, a2 := u[0][a : a+nx][:m], u[1][a : a+nx][:m], u[2][a : a+nx][:m]
		b0, b1, b2 := u[0][b:a][:m], u[1][b:a][:m], u[2][b:a][:m]
		qa := sub3(za[m-1], a2[m-1], fa[m-1], a1[m-1], ya[m-1], a0[m-1], 0) * pa[m-1]
		za[m-1] = qa
		var qb float64
		for t := m - 2; t >= 0; t-- {
			vb := sub3(zb[t+1], b2[t+1], fb[t+1], b1[t+1], qa, b0[t+1], qb) * pb[t+1]
			va := sub3(za[t], a2[t], fa[t], a1[t], ya[t], a0[t], qa) * pa[t]
			zb[t+1], qb = vb, vb
			za[t], qa = va, va
		}
		zb[0] = sub3(zb[0], b2[0], fb[0], b1[0], qa, b0[0], qb) * pb[0]
	}
	if a >= lo {
		za := z[a : a+nx]
		m := len(za)
		ya, fa := z[a+nx : a+2*nx][:m], z[a+nxy : a+nx+nxy][:m]
		pa := p[a : a+nx][:m]
		a0, a1, a2 := u[0][a : a+nx][:m], u[1][a : a+nx][:m], u[2][a : a+nx][:m]
		var qa float64
		for t := m - 1; t >= 0; t-- {
			qa = sub3(za[t], a2[t], fa[t], a1[t], ya[t], a0[t], qa) * pa[t]
			za[t] = qa
		}
	}
}
