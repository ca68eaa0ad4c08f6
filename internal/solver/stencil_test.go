package solver_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lcn3d/internal/grid"
	"lcn3d/internal/iccad"
	"lcn3d/internal/network"
	"lcn3d/internal/rm4"
	"lcn3d/internal/solver"
	"lcn3d/internal/sparse"
	"lcn3d/internal/thermal"
)

// rm4Model builds the 4RM model of ICCAD case 1 at the given grid scale,
// with straight channels or, when tree is set, two 4-branch trees.
func rm4Model(tb testing.TB, scale int, tree bool) *rm4.Model {
	tb.Helper()
	bench, err := iccad.LoadScaled(1, grid.Dims{NX: scale, NY: scale})
	if err != nil {
		tb.Fatal(err)
	}
	d := bench.Stk.Dims
	n := network.Straight(d, grid.SideWest, 1)
	if tree {
		if n, err = network.Tree(d, network.UniformTreeSpec(d, 2, network.Branch4, 0.3, 0.6)); err != nil {
			tb.Fatal(err)
		}
	}
	nets := make([]*network.Network, len(bench.Stk.ChannelLayers()))
	for i := range nets {
		nets[i] = n
	}
	m, err := rm4.New(bench.Stk, nets, thermal.Central)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// rm4System assembles the 4RM system of ICCAD case 1 with straight
// channels at the given grid scale and pressure (Pa).
func rm4System(tb testing.TB, scale int, psys float64) (*sparse.CSR, []float64) {
	tb.Helper()
	sys, err := rm4Model(tb, scale, false).System(psys)
	if err != nil {
		tb.Fatal(err)
	}
	return sys.A, sys.B
}

// referenceBiCGSTAB is the unfused BiCGSTAB loop: one pass per vector
// operation, built from the exported kernels. Workspace.BiCGSTAB fuses
// these passes and must reproduce its iterates bit for bit.
func referenceBiCGSTAB(a *sparse.CSR, b, x []float64, opt solver.Options) (solver.Result, error) {
	n := a.N
	r, rhat, p, phat := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	v, s, shat, tv := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	a.MulVecAuto(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	bnorm := solver.Norm2(b)
	res := solver.Norm2(r) / bnorm
	if res <= opt.Tol {
		return solver.Result{Residual: res}, nil
	}
	copy(rhat, r)
	var rhoOld, alpha, omega float64 = 1, 1, 1
	for it := 1; it <= opt.MaxIter; it++ {
		rho := solver.Dot(rhat, r)
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
		alpha = rho / solver.Dot(rhat, v)
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if sr := solver.Norm2(s) / bnorm; sr <= opt.Tol {
			solver.Axpy(alpha, phat, x)
			return solver.Result{Iterations: it, Residual: sr}, nil
		}
		opt.Precond.Apply(shat, s)
		a.MulVecAuto(tv, shat)
		tt := solver.Dot(tv, tv)
		omega = solver.Dot(tv, s) / tt
		for i := range x {
			x[i] += alpha*phat[i] + omega*shat[i]
		}
		for i := range r {
			r[i] = s[i] - omega*tv[i]
		}
		res = solver.Norm2(r) / bnorm
		if res <= opt.Tol {
			return solver.Result{Iterations: it, Residual: res}, nil
		}
		rhoOld = rho
	}
	return solver.Result{Iterations: opt.MaxIter, Residual: res}, solver.ErrNotConverged
}

// TestBiCGSTABFusedMatchesReference pins the fused vector passes of
// Workspace.BiCGSTAB to the unfused loop on the scale-21 4RM system:
// after every iteration budget up to convergence, the iterate, the
// iteration count and the residual must be identical.
func TestBiCGSTABFusedMatchesReference(t *testing.T) {
	a, b := rm4System(t, 21, 12e3)
	if _, ok := a.StencilOffsets(); !ok {
		t.Fatal("scale-21 4RM matrix is not a 7-point stencil")
	}
	pre, err := solver.NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	var w solver.Workspace
	for budget := 1; ; budget++ {
		opt := solver.Options{Tol: 1e-10, MaxIter: budget, Precond: pre}
		xr := make([]float64, a.N)
		xf := make([]float64, a.N)
		for i := range xr {
			xr[i], xf[i] = 300, 300
		}
		resR, errR := referenceBiCGSTAB(a, b, xr, opt)
		resF, errF := w.BiCGSTAB(a, b, xf, opt)
		if resR != resF || errR != errF {
			t.Fatalf("budget %d: fused %+v (%v), reference %+v (%v)", budget, resF, errF, resR, errR)
		}
		for i := range xr {
			if math.Float64bits(xr[i]) != math.Float64bits(xf[i]) {
				t.Fatalf("budget %d: x[%d] = %v fused, %v reference", budget, i, xf[i], xr[i])
			}
		}
		if errF == nil {
			if budget < 5 {
				t.Fatalf("converged after %d iterations; the comparison covers too few", budget)
			}
			return
		}
		if budget > 200 {
			t.Fatalf("no convergence within %d iterations: %v", budget, errF)
		}
	}
}

// spmvBytes returns the bytes one stencil-aware SpMV streams: every
// value, the column indices and row pointers of rows outside the seven-
// and six-entry runs, x and dst.
func spmvBytes(m *sparse.CSR) int64 {
	_, ok := m.StencilOffsets()
	var generic int64
	for i := 0; i < m.N; i++ {
		if k := m.RowPtr[i+1] - m.RowPtr[i]; !ok || k < sparse.StencilWidth-1 {
			generic += int64(k) + 2 // columns plus the two row pointers
		}
	}
	return 8 * (int64(m.NNZ()) + generic + 2*int64(m.N))
}

// BenchmarkStencilSpMV times one serial SpMV on the 4RM systems at
// scales 21 and 51. SetBytes reports the bytes the kernel streams, so
// MB/s reads as achieved bandwidth; the operation count is 2·nnz flops.
func BenchmarkStencilSpMV(b *testing.B) {
	for _, scale := range []int{21, 51} {
		a, rhs := rm4System(b, scale, 12e3)
		dst := make([]float64, a.N)
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			b.SetBytes(spmvBytes(a))
			b.ReportMetric(float64(2*a.NNZ()), "flops/op")
			for i := 0; i < b.N; i++ {
				a.MulVec(dst, rhs)
			}
		})
	}
}

// TestStencilILUMatchesReference pins the line-pair ILU(0) sweeps to the
// reference sweep they replaced on the case-1 4RM systems at scales 21
// and 51, straight and tree, and on a transient C/dt + A(s) matrix: every
// entry of z must be bitwise equal, up to the sign of an exact zero.
func TestStencilILUMatchesReference(t *testing.T) {
	type system struct {
		name string
		a    *sparse.CSR
	}
	var systems []system
	for _, scale := range []int{21, 51} {
		for _, tree := range []bool{false, true} {
			m := rm4Model(t, scale, tree)
			sys, err := m.System(12e3)
			if err != nil {
				t.Fatal(err)
			}
			systems = append(systems, system{fmt.Sprintf("scale%d/tree=%v", scale, tree), sys.A})
			if scale != 21 || !tree {
				continue
			}
			// The transient stepper's left-hand side: C/dt on A's diagonal.
			const dt = 1e-3
			ts, err := m.Transient(12e3, dt)
			if err != nil {
				t.Fatal(err)
			}
			tr := &sparse.CSR{N: sys.A.N, RowPtr: sys.A.RowPtr, Cols: sys.A.Cols,
				Vals: append([]float64(nil), sys.A.Vals...)}
			diag, err := tr.DiagIndices()
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range diag {
				tr.Vals[k] += ts.Cap[i] / dt
			}
			systems = append(systems, system{"scale21/tree=true/transient", tr})
		}
	}
	for _, sys := range systems {
		pre, err := solver.NewILU0(sys.a)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		rng := rand.New(rand.NewSource(1))
		r := make([]float64, sys.a.N)
		for i := range r {
			r[i] = 2*rng.Float64() - 1
		}
		got, want := make([]float64, sys.a.N), make([]float64, sys.a.N)
		pre.Apply(got, r)
		if !solver.ReferenceILUApply(pre, want, r) {
			t.Fatalf("%s: no stencil factor", sys.name)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] == 0 && want[i] == 0) {
				t.Fatalf("%s: z[%d] = %v, reference %v", sys.name, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkStencilILUApply times one ILU(0) apply (forward and backward
// sweep) on the 4RM systems at scales 21 and 51, and the reference sweep
// the line-pair sweeps replaced on the same factor, so one run prints
// both. The stencil factor streams seven coefficient arrays, r once and z
// three times (written by the forward sweep, read and rewritten by the
// backward one); the operation count is about 2·nnz flops.
func BenchmarkStencilILUApply(b *testing.B) {
	for _, scale := range []int{21, 51} {
		a, rhs := rm4System(b, scale, 12e3)
		pre, err := solver.NewILU0(a)
		if err != nil {
			b.Fatal(err)
		}
		z := make([]float64, a.N)
		for _, ref := range []bool{false, true} {
			name := fmt.Sprintf("scale%d", scale)
			if ref {
				name += "/reference"
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(8 * 11 * int64(a.N))
				b.ReportMetric(float64(2*a.NNZ()), "flops/op")
				for i := 0; i < b.N; i++ {
					if !ref {
						pre.Apply(z, rhs)
					} else if !solver.ReferenceILUApply(pre, z, rhs) {
						b.Fatal("no stencil factor")
					}
				}
			})
		}
	}
}
