package solver

import (
	"math"
	"math/rand"
	"testing"

	"lcn3d/internal/sparse"
)

// randomGridMatrix assembles a diagonally dominant operator on an
// nx×ny×nz grid with the 7-point coupling pattern of the 4RM systems.
// Each off-diagonal entry is dropped with probability drop/256, which
// breaks the full-stencil rows into runs of every length, down to 1.
// With cross set, the last cell of every line also couples to the next
// row, so the ±1 offset crosses line boundaries.
func randomGridMatrix(rng *rand.Rand, nx, ny, nz int, drop uint8, cross bool) *sparse.CSR {
	n := nx * ny * nz
	b := sparse.NewBuilder(n)
	offs := []int{-nx * ny, -nx, -1, 1, nx, nx * ny}
	val := func() float64 {
		if v := 2*rng.Float64() - 1; v != 0 {
			return v
		}
		return 0.5
	}
	for i := 0; i < n; i++ {
		x, y, z := i%nx, (i/nx)%ny, i/(nx*ny)
		in := []bool{z > 0, y > 0, x > 0, x+1 < nx, y+1 < ny, z+1 < nz}
		sum := 0.0
		for d, o := range offs {
			if !in[d] || rng.Intn(256) < int(drop) {
				continue
			}
			v := val()
			b.Add(i, i+o, v)
			sum += math.Abs(v)
		}
		if cross && x == nx-1 && i+1 < n {
			v := val()
			b.Add(i, i+1, v)
			sum += math.Abs(v)
		}
		if cross && x == 0 && i > 0 {
			v := val()
			b.Add(i, i-1, v)
			sum += math.Abs(v)
		}
		b.Add(i, i, 1+sum+rng.Float64())
	}
	return b.Build()
}

// genericMulVec is the row loop of the generic SpMV kernel: four
// accumulators over each row's entries in groups of four, then the
// remainder in sequence.
func genericMulVec(m *sparse.CSR, dst, x []float64) {
	for i := 0; i < m.N; i++ {
		k, end := m.RowPtr[i], m.RowPtr[i+1]
		var s0, s1, s2, s3 float64
		for ; k+4 <= end; k += 4 {
			s0 += m.Vals[k] * x[m.Cols[k]]
			s1 += m.Vals[k+1] * x[m.Cols[k+1]]
			s2 += m.Vals[k+2] * x[m.Cols[k+2]]
			s3 += m.Vals[k+3] * x[m.Cols[k+3]]
		}
		s := (s0 + s1) + (s2 + s3)
		for ; k < end; k++ {
			s += m.Vals[k] * x[m.Cols[k]]
		}
		dst[i] = s
	}
}

// sameUpToZeroSign reports whether a and b are bitwise equal, or both
// zero.
func sameUpToZeroSign(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a == 0 && b == 0
}

// FuzzStencilKernels checks the stencil kernels against the generic ones
// on random grids — odd and even line counts, one or two lines per layer,
// one or two layers — with random dropped entries and values. SpMV, its
// seven- and six-entry runs included, must be bitwise identical to the
// generic row loop through MulVec and through MulVecAuto at 1–4 workers
// with a small row-block size. The ILU(0) factor must take the line-pair
// sweeps exactly when the pattern is a grid stencil whose ±1 entries stay
// within lines; those sweeps must match the reference sweep bit for bit,
// up to the sign of an exact zero, and every apply must agree with the
// generic CSR apply within 1e-12 relative.
func FuzzStencilKernels(f *testing.F) {
	f.Add(uint8(5), uint8(4), uint8(3), uint8(0), uint16(64), int64(1), false)
	f.Add(uint8(2), uint8(2), uint8(2), uint8(40), uint16(7), int64(2), false)
	f.Add(uint8(9), uint8(3), uint8(6), uint8(128), uint16(20), int64(3), false)
	// Above the parallel SpMV threshold, so MulVecAuto fans out.
	f.Add(uint8(38), uint8(38), uint8(11), uint8(16), uint16(300), int64(4), false)
	// Two lines per layer, odd and even layer counts.
	f.Add(uint8(7), uint8(1), uint8(4), uint8(0), uint16(50), int64(5), false)
	f.Add(uint8(4), uint8(1), uint8(5), uint8(8), uint16(50), int64(6), false)
	// One line per layer or one layer: fewer than seven offsets.
	f.Add(uint8(6), uint8(0), uint8(5), uint8(0), uint16(50), int64(7), false)
	f.Add(uint8(6), uint8(5), uint8(0), uint8(0), uint16(50), int64(8), false)
	// Two layers.
	f.Add(uint8(6), uint8(4), uint8(1), uint8(0), uint16(50), int64(9), false)
	// ±1 entries across line boundaries: the generic factor.
	f.Add(uint8(5), uint8(4), uint8(3), uint8(0), uint16(64), int64(10), true)
	f.Fuzz(func(t *testing.T, nx, ny, nz, drop uint8, blockNNZ uint16, seed int64, cross bool) {
		rng := rand.New(rand.NewSource(seed))
		gx, gy, gz := 2+int(nx)%39, 1+int(ny)%40, 1+int(nz)%24
		m := randomGridMatrix(rng, gx, gy, gz, drop, cross)
		n := m.N
		off, ok := m.StencilOffsets()
		if drop == 0 && min(gx, gy, gz) >= 3 && !ok {
			t.Fatalf("full %d×%d×%d grid not detected as a stencil", gx, gy, gz)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}

		want := make([]float64, n)
		genericMulVec(m, want, x)
		got := make([]float64, n)
		check := func(how string) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: row %d = %v, generic loop %v", how, i, got[i], want[i])
				}
			}
		}
		m.MulVec(got, x)
		check("MulVec")
		defer sparse.SetSpMVWorkers(0)
		defer sparse.SetSpMVBlockNNZ(0)
		sparse.SetSpMVBlockNNZ(1 + int(blockNNZ)%512)
		for w := 1; w <= 4; w++ {
			sparse.SetSpMVWorkers(w)
			for i := range got {
				got[i] = math.NaN()
			}
			m.MulVecAuto(got, x)
			check("MulVecAuto")
		}

		ref, err := factorILU0(m)
		if err != nil {
			t.Fatalf("generic ILU(0): %v", err)
		}
		pre, err := NewILU0(m)
		if err != nil {
			t.Fatalf("ILU(0): %v", err)
		}
		if (ok && !cross) != (pre.st != nil) {
			t.Fatalf("line-pair factor %v for offsets %v (stencil %v, cross-line ±1 %v)", pre.st != nil, off, ok, cross)
		}
		zr, zs := make([]float64, n), make([]float64, n)
		ref.Apply(zr, x)
		pre.Apply(zs, x)
		var maxRef, maxDiff float64
		for i := range zr {
			maxRef = math.Max(maxRef, math.Abs(zr[i]))
			maxDiff = math.Max(maxDiff, math.Abs(zs[i]-zr[i]))
		}
		if !(maxDiff <= 1e-12*maxRef) {
			t.Fatalf("ILU(0) apply differs by %g (max |z| %g)", maxDiff, maxRef)
		}
		if pre.st == nil {
			return
		}
		referenceStencilApply(pre.st, zr, x)
		for i := range zr {
			if !sameUpToZeroSign(zs[i], zr[i]) {
				t.Fatalf("line-pair sweep z[%d] = %v, reference sweep %v", i, zs[i], zr[i])
			}
		}
	})
}
