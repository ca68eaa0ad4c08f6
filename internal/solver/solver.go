// Package solver provides the iterative linear solvers and preconditioners
// used for the fluidic (SPD) and thermal (nonsymmetric) systems:
// preconditioned conjugate gradients, BiCGSTAB, restarted GMRES, and a
// dense LU factorization for tiny systems and cross-checks.
//
// It plays the role the Eigen library plays in the paper's C++
// implementation, built on the standard library only.
package solver

import (
	"errors"
	"fmt"
	"math"

	"lcn3d/internal/faults"
	"lcn3d/internal/sparse"
)

// ErrNotConverged is returned when an iterative method exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNotConverged = errors.New("solver: not converged")

// ErrBreakdown is returned when an iterative method encounters a zero
// inner product that prevents further progress.
var ErrBreakdown = errors.New("solver: numerical breakdown")

// Options configures an iterative solve.
type Options struct {
	Tol     float64 // relative residual target ||b-Ax|| / ||b||; default 1e-9
	MaxIter int     // iteration budget; default 4*n
	Precond Preconditioner
	// Restart is the GMRES restart length; default 50.
	Restart int
}

func (o Options) withDefaults(n int) Options {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 4 * n
		if o.MaxIter < 200 {
			o.MaxIter = 200
		}
	}
	if o.Precond == nil {
		o.Precond = Identity{}
	}
	if o.Restart <= 0 {
		o.Restart = 50
	}
	return o
}

// Result reports how a solve went.
type Result struct {
	Iterations int
	Residual   float64 // final relative residual
}

// Preconditioner applies z = M^{-1} r.
type Preconditioner interface {
	Apply(z, r []float64)
}

// Identity is the no-op preconditioner.
type Identity struct{}

// Apply copies r into z.
func (Identity) Apply(z, r []float64) { copy(z, r) }

// Jacobi preconditions with the inverse diagonal.
type Jacobi struct{ invDiag []float64 }

// NewJacobi builds a Jacobi preconditioner from the matrix diagonal.
// Zero diagonal entries are treated as 1 to stay defined.
func NewJacobi(m *sparse.CSR) *Jacobi {
	d := m.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			inv[i] = 1
		} else {
			inv[i] = 1 / v
		}
	}
	return &Jacobi{invDiag: inv}
}

// Apply sets z = D^{-1} r.
func (j *Jacobi) Apply(z, r []float64) {
	for i := range r {
		z[i] = r[i] * j.invDiag[i]
	}
}

// notFinite reports a NaN or ±Inf scalar. Iterative methods test their
// residuals and pivotal inner products with it so numerical breakdown
// surfaces as ErrBreakdown at the iteration it occurs, instead of
// iterating on poisoned vectors to the end of the budget.
func notFinite(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0)
}

// Norm2, Dot and Axpy are the vector kernels of the iterative methods.
// They run sequentially, so their rounding never depends on scheduling.

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// CG solves the symmetric positive definite system A x = b with
// preconditioned conjugate gradients. x is used as the initial guess and
// holds the solution on return.
func CG(a *sparse.CSR, b, x []float64, opt Options) (Result, error) {
	n := a.N
	if len(b) != n || len(x) != n {
		return Result{}, fmt.Errorf("solver: CG dimension mismatch: n=%d, |b|=%d, |x|=%d", n, len(b), len(x))
	}
	if faults.Fire(faults.CGBreakdown) {
		return Result{}, ErrBreakdown
	}
	if faults.Fire(faults.NotConverged) {
		return Result{Residual: math.Inf(1)}, ErrNotConverged
	}
	opt = opt.withDefaults(n)

	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	a.MulVecAuto(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{Iterations: 0, Residual: 0}, nil
	}
	res := Norm2(r) / bnorm
	if res <= opt.Tol {
		return Result{Iterations: 0, Residual: res}, nil
	}

	opt.Precond.Apply(z, r)
	copy(p, z)
	rz := Dot(r, z)

	for it := 1; it <= opt.MaxIter; it++ {
		a.MulVecAuto(ap, p)
		pap := Dot(p, ap)
		if pap == 0 || notFinite(pap) {
			return Result{Iterations: it, Residual: res}, ErrBreakdown
		}
		alpha := rz / pap
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		res = Norm2(r) / bnorm
		if notFinite(res) {
			return Result{Iterations: it, Residual: res}, ErrBreakdown
		}
		if res <= opt.Tol {
			return Result{Iterations: it, Residual: res}, nil
		}
		opt.Precond.Apply(z, r)
		rzNew := Dot(r, z)
		if rz == 0 || notFinite(rzNew) {
			return Result{Iterations: it, Residual: res}, ErrBreakdown
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return Result{Iterations: opt.MaxIter, Residual: res}, ErrNotConverged
}

// Workspace is scratch memory for repeated solves: its vectors are
// allocated on first use, grown to the largest request, and reused, so a
// hot loop of solves on one system allocates nothing. The zero value is
// ready to use. A Workspace must not be shared by concurrent solves.
type Workspace struct{ buf []float64 }

// Vectors returns count n-vectors laid out back to back (vector j is
// v[j*n:(j+1)*n]). Their contents are unspecified, and they stay valid
// until the next call on w.
func (w *Workspace) Vectors(n, count int) []float64 {
	need := n * count
	if cap(w.buf) < need {
		w.buf = make([]float64, need)
	}
	return w.buf[:need]
}

// BiCGSTAB solves the general system A x = b with the stabilized
// bi-conjugate gradient method. x is the initial guess and result.
func BiCGSTAB(a *sparse.CSR, b, x []float64, opt Options) (Result, error) {
	var w Workspace
	return w.BiCGSTAB(a, b, x, opt)
}

// BiCGSTAB is BiCGSTAB with its eight scratch vectors taken from w.
func (w *Workspace) BiCGSTAB(a *sparse.CSR, b, x []float64, opt Options) (Result, error) {
	n := a.N
	if len(b) != n || len(x) != n {
		return Result{}, fmt.Errorf("solver: BiCGSTAB dimension mismatch: n=%d, |b|=%d, |x|=%d", n, len(b), len(x))
	}
	if faults.Fire(faults.BiCGBreakdown) {
		return Result{}, ErrBreakdown
	}
	if faults.Fire(faults.NotConverged) {
		return Result{Residual: math.Inf(1)}, ErrNotConverged
	}
	opt = opt.withDefaults(n)

	vecs := w.Vectors(n, 8)
	r, rhat, p, phat := vecs[:n], vecs[n:2*n], vecs[2*n:3*n], vecs[3*n:4*n]
	v, s, shat, tv := vecs[4*n:5*n], vecs[5*n:6*n], vecs[6*n:7*n], vecs[7*n:]

	a.MulVecAuto(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := Norm2(b)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{}, nil
	}
	res := Norm2(r) / bnorm
	if res <= opt.Tol {
		return Result{Iterations: 0, Residual: res}, nil
	}
	copy(rhat, r)

	// The vector passes are fused where they share operands: s with
	// ‖s‖, ⟨t,t⟩ with ⟨t,s⟩, and x, r, ‖r‖ and the next ρ = ⟨r̂,r⟩ in one
	// sweep. Every reduction keeps its own accumulator summed in index
	// order, so the iterates are bitwise identical to the unfused loop.
	rho := Dot(rhat, r)
	var rhoOld, alpha, omega float64 = 1, 1, 1
	for it := 1; it <= opt.MaxIter; it++ {
		if rho == 0 || notFinite(rho) {
			return Result{Iterations: it, Residual: res}, ErrBreakdown
		}
		if it == 1 {
			copy(p, r)
		} else {
			beta := (rho / rhoOld) * (alpha / omega)
			for i := range p {
				p[i] = r[i] + beta*(p[i]-omega*v[i])
			}
		}
		opt.Precond.Apply(phat, p)
		a.MulVecAuto(v, phat)
		den := Dot(rhat, v)
		if den == 0 || notFinite(den) {
			return Result{Iterations: it, Residual: res}, ErrBreakdown
		}
		alpha = rho / den
		var ss float64
		for i := range s {
			si := r[i] - alpha*v[i]
			s[i] = si
			ss += si * si
		}
		if sr := math.Sqrt(ss) / bnorm; sr <= opt.Tol {
			Axpy(alpha, phat, x)
			return Result{Iterations: it, Residual: sr}, nil
		}
		opt.Precond.Apply(shat, s)
		a.MulVecAuto(tv, shat)
		var tt, ts float64
		for i, ti := range tv {
			tt += ti * ti
			ts += ti * s[i]
		}
		if tt == 0 || notFinite(tt) {
			return Result{Iterations: it, Residual: res}, ErrBreakdown
		}
		omega = ts / tt
		if omega == 0 || notFinite(omega) {
			return Result{Iterations: it, Residual: res}, ErrBreakdown
		}
		rhoOld = rho
		var rr float64
		rho = 0
		for i := range r {
			x[i] += alpha*phat[i] + omega*shat[i]
			ri := s[i] - omega*tv[i]
			r[i] = ri
			rr += ri * ri
			rho += rhat[i] * ri
		}
		res = math.Sqrt(rr) / bnorm
		if notFinite(res) {
			return Result{Iterations: it, Residual: res}, ErrBreakdown
		}
		if res <= opt.Tol {
			return Result{Iterations: it, Residual: res}, nil
		}
	}
	return Result{Iterations: opt.MaxIter, Residual: res}, ErrNotConverged
}
