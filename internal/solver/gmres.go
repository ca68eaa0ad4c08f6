package solver

import (
	"fmt"
	"math"

	"lcn3d/internal/faults"
	"lcn3d/internal/sparse"
)

// GMRES solves the general system A x = b with restarted GMRES(m) and
// right preconditioning. x is the initial guess and result. It is the
// robust fallback for thermal systems on which BiCGSTAB stagnates (the
// central-differencing convection stencil can produce strongly
// non-normal matrices at high flow rates).
func GMRES(a *sparse.CSR, b, x []float64, opt Options) (Result, error) {
	n := a.N
	if len(b) != n || len(x) != n {
		return Result{}, fmt.Errorf("solver: GMRES dimension mismatch: n=%d, |b|=%d, |x|=%d", n, len(b), len(x))
	}
	if faults.Fire(faults.GMRESBreakdown) {
		return Result{}, ErrBreakdown
	}
	if faults.Fire(faults.NotConverged) {
		return Result{Residual: math.Inf(1)}, ErrNotConverged
	}
	opt = opt.withDefaults(n)
	m := opt.Restart
	if m > n {
		m = n
	}

	bnorm := Norm2(b)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{}, nil
	}

	r := make([]float64, n)
	w := make([]float64, n)
	zt := make([]float64, n)
	// Krylov basis.
	v := make([][]float64, m+1)
	for i := range v {
		v[i] = make([]float64, n)
	}
	// Hessenberg matrix, Givens rotations, residual vector.
	h := make([][]float64, m+1)
	for i := range h {
		h[i] = make([]float64, m)
	}
	cs := make([]float64, m)
	sn := make([]float64, m)
	g := make([]float64, m+1)
	y := make([]float64, m)

	totalIter := 0
	res := math.Inf(1)
	for totalIter < opt.MaxIter {
		a.MulVecAuto(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		beta := Norm2(r)
		res = beta / bnorm
		if notFinite(res) {
			return Result{Iterations: totalIter, Residual: res}, ErrBreakdown
		}
		if res <= opt.Tol {
			return Result{Iterations: totalIter, Residual: res}, nil
		}
		for i := range v[0] {
			v[0][i] = r[i] / beta
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < m && totalIter < opt.MaxIter; k++ {
			totalIter++
			// w = A * M^{-1} * v_k (right preconditioning).
			opt.Precond.Apply(zt, v[k])
			a.MulVecAuto(w, zt)
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				h[i][k] = Dot(w, v[i])
				Axpy(-h[i][k], v[i], w)
			}
			h[k+1][k] = Norm2(w)
			if notFinite(h[k+1][k]) {
				return Result{Iterations: totalIter, Residual: res}, ErrBreakdown
			}
			if h[k+1][k] != 0 {
				for i := range w {
					v[k+1][i] = w[i] / h[k+1][k]
				}
			}
			// Apply existing Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			// New rotation to zero h[k+1][k].
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k] = h[k][k] / denom
				sn[k] = h[k+1][k] / denom
			}
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]

			res = math.Abs(g[k+1]) / bnorm
			if res <= opt.Tol {
				k++
				break
			}
		}
		// Back substitution for y in H y = g.
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h[i][j] * y[j]
			}
			if h[i][i] == 0 {
				return Result{Iterations: totalIter, Residual: res}, ErrBreakdown
			}
			y[i] = s / h[i][i]
		}
		// x += M^{-1} * V * y.
		for i := range zt {
			zt[i] = 0
		}
		for j := 0; j < k; j++ {
			Axpy(y[j], v[j], zt)
		}
		opt.Precond.Apply(w, zt)
		Axpy(1, w, x)

		if res <= opt.Tol {
			return Result{Iterations: totalIter, Residual: res}, nil
		}
	}
	return Result{Iterations: totalIter, Residual: res}, ErrNotConverged
}

// SolveGeneral solves a general sparse system, trying BiCGSTAB first and
// falling back to GMRES when BiCGSTAB breaks down or stagnates. This is
// the entry point the thermal simulators use.
func SolveGeneral(a *sparse.CSR, b, x []float64, opt Options) (Result, error) {
	x0 := make([]float64, len(x))
	copy(x0, x)
	res, err := BiCGSTAB(a, b, x, opt)
	if err == nil {
		return res, nil
	}
	// Restart from the original guess with GMRES.
	copy(x, x0)
	res2, err2 := GMRES(a, b, x, opt)
	if err2 == nil {
		return res2, nil
	}
	res2.Iterations += res.Iterations
	return res2, err2
}
