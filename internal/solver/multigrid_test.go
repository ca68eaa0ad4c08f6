package solver

import (
	"math"
	"testing"

	"lcn3d/internal/faults"
	"lcn3d/internal/sparse"
)

// buildAffineGrid assembles a 2D five-point grid operator as an affine
// pair: the static part is the Laplacian plus a Dirichlet anchor, the
// flow part is an upwind advection in +x (nonsymmetric, like the
// convection block of the thermal systems).
func buildAffineGrid(nx, ny int, advect float64) *sparse.AffinePair {
	n := nx * ny
	sb := sparse.NewBuilder(n)
	fb := sparse.NewBuilder(n)
	idx := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			i := idx(x, y)
			sb.Add(i, i, 0.05) // anchor (ambient tie) keeps the system nonsingular
			if x+1 < nx {
				sb.AddSym(i, idx(x+1, y), 1)
				fb.Add(i, i, advect)
				fb.Add(idx(x+1, y), i, -advect)
			}
			if y+1 < ny {
				sb.AddSym(i, idx(x, y+1), 1)
			}
		}
	}
	pair, err := sparse.NewAffinePair(sb.Build(), fb.Build())
	if err != nil {
		panic(err)
	}
	return pair
}

// tileAgg aggregates an nx×ny grid into tiles of side m.
func tileAgg(nx, ny, m int) (agg []int, nc int) {
	cx := (nx + m - 1) / m
	cy := (ny + m - 1) / m
	agg = make([]int, nx*ny)
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			agg[y*nx+x] = (y/m)*cx + x/m
		}
	}
	return agg, cx * cy
}

// TestTwoLevelGalerkin verifies the compiled coarse operator equals the
// explicitly computed R·A·P for piecewise-constant aggregation, at two
// different shifts.
func TestTwoLevelGalerkin(t *testing.T) {
	pair := buildAffineGrid(7, 5, 0.3)
	agg, nc := tileAgg(7, 5, 2)
	g, err := NewTwoLevel(pair, agg, nc, MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{0.7, 12.5} {
		pair.SetShift(s)
		if err := g.UpdateShift(s); err != nil {
			t.Fatal(err)
		}
		// Reference: dense R·A·P with P the 0/1 aggregation matrix.
		fine := pair.Matrix().Dense()
		want := make([][]float64, nc)
		for i := range want {
			want[i] = make([]float64, nc)
		}
		for i := 0; i < len(agg); i++ {
			for j := 0; j < len(agg); j++ {
				want[agg[i]][agg[j]] += fine[i][j]
			}
		}
		got := g.coarse.Dense()
		for i := 0; i < nc; i++ {
			for j := 0; j < nc; j++ {
				if math.Abs(got[i][j]-want[i][j]) > 1e-12*(1+math.Abs(want[i][j])) {
					t.Fatalf("s=%g: coarse[%d][%d] = %g, want %g", s, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestTwoLevelStationary checks the V-cycle works as a stationary
// iteration on the pure-diffusion problem: x += Apply(b - A·x) must
// contract the error.
func TestTwoLevelStationary(t *testing.T) {
	pair := buildAffineGrid(16, 16, 0)
	agg, nc := tileAgg(16, 16, 4)
	g, err := NewTwoLevel(pair, agg, nc, MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := pair.Matrix()
	n := m.N
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	x := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	norm0 := RelResidual(m, b, x)
	for k := 0; k < 20; k++ {
		m.MulVec(r, x)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		g.Apply(z, r)
		for i := range x {
			x[i] += z[i]
		}
	}
	if rel := RelResidual(m, b, x); rel > 1e-8*norm0 {
		t.Fatalf("V-cycle iteration stalled: rel residual %g after 20 cycles", rel)
	}
}

// TestTwoLevelPreconditionsBiCGSTAB compares iteration counts with the
// ILU(0) baseline on the advective problem across shifts, and checks the
// solutions agree with a dense solve.
func TestTwoLevelPreconditionsBiCGSTAB(t *testing.T) {
	pair := buildAffineGrid(20, 20, 0.25)
	agg, nc := tileAgg(20, 20, 4)
	g, err := NewTwoLevel(pair, agg, nc, MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := pair.Matrix()
	n := m.N
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%5)
	}
	for _, s := range []float64{0.1, 2, 40} {
		pair.SetShift(s)
		if err := g.UpdateShift(s); err != nil {
			t.Fatal(err)
		}
		want, err := DenseSolve(m, b)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		res, err := BiCGSTAB(m, b, x, Options{Tol: 1e-10, MaxIter: 400, Precond: g})
		if err != nil {
			t.Fatalf("s=%g: MG-BiCGSTAB: %v (%d iters, res %g)", s, err, res.Iterations, res.Residual)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("s=%g: x[%d] = %g, want %g", s, i, x[i], want[i])
			}
		}
		xI := make([]float64, n)
		resI, err := BiCGSTAB(m, b, xI, Options{Tol: 1e-10, MaxIter: 4000, Precond: BestPrecond(m)})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("s=%g: MG %d iters, ILU0 %d iters", s, res.Iterations, resI.Iterations)
		if res.Iterations > 3*resI.Iterations {
			t.Fatalf("s=%g: MG took %d iters vs ILU0 %d", s, res.Iterations, resI.Iterations)
		}
	}
}

// TestTwoLevelRejectsLargeCoarse: the coarse system is solved with a
// dense LU, so a coarse map beyond DenseCoarseMax aggregates is refused.
func TestTwoLevelRejectsLargeCoarse(t *testing.T) {
	pair := buildAffineGrid(40, 40, 0.25)
	agg, nc := tileAgg(40, 40, 4)
	if nc <= DenseCoarseMax {
		t.Fatalf("fixture coarse size %d fits a dense solve", nc)
	}
	if _, err := NewTwoLevel(pair, agg, nc, MGOptions{}); err == nil {
		t.Fatalf("NewTwoLevel accepted %d aggregates (max %d)", nc, DenseCoarseMax)
	}
}

// TestTwoLevelFaultPoints verifies each named V-cycle fault poisons the
// output, which the outer Krylov solves surface as breakdown.
func TestTwoLevelFaultPoints(t *testing.T) {
	pair := buildAffineGrid(8, 8, 0.2)
	agg, nc := tileAgg(8, 8, 2)
	for _, pt := range []faults.Point{faults.MGSmoother, faults.MGRestrict, faults.MGCoarse} {
		g, err := NewTwoLevel(pair, agg, nc, MGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := faults.Arm(string(pt) + "=always"); err != nil {
			t.Fatal(err)
		}
		n := pair.Matrix().N
		r := make([]float64, n)
		for i := range r {
			r[i] = 1
		}
		z := make([]float64, n)
		g.Apply(z, r)
		faults.Disarm()
		poisoned := false
		for _, v := range z {
			if math.IsNaN(v) {
				poisoned = true
				break
			}
		}
		if !poisoned {
			t.Fatalf("%s: output not poisoned", pt)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		if err := faults.Arm(string(pt) + "=always"); err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		_, err = BiCGSTAB(pair.Matrix(), b, x, Options{Tol: 1e-10, MaxIter: 100, Precond: g})
		faults.Disarm()
		if err == nil {
			t.Fatalf("%s: BiCGSTAB did not fail under the armed fault", pt)
		}
	}
}
