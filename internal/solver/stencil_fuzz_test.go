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
func randomGridMatrix(rng *rand.Rand, nx, ny, nz int, drop uint8) *sparse.CSR {
	n := nx * ny * nz
	b := sparse.NewBuilder(n)
	offs := []int{-nx * ny, -nx, -1, 1, nx, nx * ny}
	for i := 0; i < n; i++ {
		x, y, z := i%nx, (i/nx)%ny, i/(nx*ny)
		in := []bool{z > 0, y > 0, x > 0, x+1 < nx, y+1 < ny, z+1 < nz}
		sum := 0.0
		for d, o := range offs {
			if !in[d] || rng.Intn(256) < int(drop) {
				continue
			}
			v := 2*rng.Float64() - 1
			if v == 0 {
				v = 0.5
			}
			b.Add(i, i+o, v)
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

// FuzzStencilKernels checks the stencil kernels against the generic ones
// on random grids, random dropped entries and random values: SpMV must
// be bitwise identical through MulVec and through MulVecAuto at 1–4
// workers with a small row-block size, and the stencil ILU(0) apply must
// agree with the generic apply within 1e-12 relative.
func FuzzStencilKernels(f *testing.F) {
	f.Add(uint8(5), uint8(4), uint8(3), uint8(0), uint16(64), int64(1))
	f.Add(uint8(2), uint8(2), uint8(2), uint8(40), uint16(7), int64(2))
	f.Add(uint8(9), uint8(3), uint8(6), uint8(128), uint16(20), int64(3))
	// Above the parallel SpMV threshold, so MulVecAuto fans out.
	f.Add(uint8(38), uint8(38), uint8(11), uint8(16), uint16(300), int64(4))
	f.Fuzz(func(t *testing.T, nx, ny, nz, drop uint8, blockNNZ uint16, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		gx, gy, gz := 2+int(nx)%39, 2+int(ny)%39, 2+int(nz)%23
		m := randomGridMatrix(rng, gx, gy, gz, drop)
		n := m.N
		if _, ok := m.StencilOffsets(); drop == 0 && min(gx, gy, gz) >= 3 && !ok {
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
		if off, ok := m.StencilOffsets(); (ok && off[3] == 0) != (pre.st != nil) {
			t.Fatalf("stencil factor %v for offsets %v (stencil %v)", pre.st != nil, off, ok)
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
	})
}
