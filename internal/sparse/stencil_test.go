package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// gridCSR assembles a 7-point operator on an nx×ny×nz grid, the 4RM
// coupling pattern, with random values.
func gridCSR(rng *rand.Rand, nx, ny, nz int) *CSR {
	n := nx * ny * nz
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		x, y, z := i%nx, (i/nx)%ny, i/(nx*ny)
		b.Add(i, i, 10+rng.Float64())
		for _, nb := range []struct {
			ok  bool
			off int
		}{{x+1 < nx, 1}, {y+1 < ny, nx}, {z+1 < nz, nx * ny}} {
			if nb.ok {
				b.Add(i, i+nb.off, -rng.Float64())
				b.Add(i+nb.off, i, -rng.Float64())
			}
		}
	}
	return b.Build()
}

// TestStencilAnalysis checks the detected offsets and runs on a 4×3×3
// grid, where only rows (1,1,1) and (2,1,1) have all six neighbours and
// the single six-entry rows beside them stay in the generic loop, and
// rejects patterns that are not 7-point stencils.
func TestStencilAnalysis(t *testing.T) {
	m := gridCSR(rand.New(rand.NewSource(1)), 4, 3, 3)
	off, ok := m.StencilOffsets()
	if want := [StencilWidth]int{-12, -4, -1, 0, 1, 4, 12}; !ok || off != want {
		t.Fatalf("offsets %v (stencil %v), want %v", off, ok, want)
	}
	// Offset indices: 0 = −12, 1 = −4, 2 = −1, 4 = +1, 5 = +4, 6 = +12.
	want := []stencilRun{
		// First layer, inner line.
		{5, 7, 0},
		// Middle layer: first line, inner line, last line.
		{13, 15, 1},
		{17, 19, 7},
		{21, 23, 5},
		// Last layer, inner line.
		{29, 31, 6},
	}
	if runs := m.stencilPattern().runs; !slices.Equal(runs, want) {
		t.Fatalf("runs %v, want %v", runs, want)
	}

	// An eighth offset: not a stencil.
	b := NewBuilder(40)
	for i := 0; i < 40; i++ {
		b.Add(i, i, 1)
	}
	for _, d := range []int{1, 2, 3, 5, 7, 11, 13} {
		b.Add(20, 20+d, 1)
	}
	if _, ok := b.Build().StencilOffsets(); ok {
		t.Fatal("eight offsets detected as a stencil")
	}
	// Seven offsets, but no row stores all of them: not a stencil.
	b = NewBuilder(40)
	for i := 0; i < 40; i++ {
		b.Add(i, i, 1)
	}
	for _, d := range []int{-9, -5, -1, 1, 5, 9} {
		b.Add(20, 20+d, 1)
	}
	b.Add(21, 22, 1)
	if _, ok := b.Build().StencilOffsets(); !ok {
		t.Fatal("a full row of seven offsets not detected")
	}
	b = NewBuilder(40)
	for i := 0; i < 40; i++ {
		b.Add(i, i, 1)
	}
	for _, d := range []int{-9, -5, -1} {
		b.Add(20, 20+d, 1)
	}
	for _, d := range []int{1, 5, 9} {
		b.Add(30, 30+d, 1)
	}
	if _, ok := b.Build().StencilOffsets(); ok {
		t.Fatal("seven offsets with no full row detected as a stencil")
	}
}

// TestStencilConcurrentFirstUse runs SpMV from several goroutines on a
// matrix whose pattern has not been analysed yet, through both entry
// points, and checks every result against the generic row loop.
func TestStencilConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := gridCSR(rng, 30, 30, 24) // above parallelThreshold
	x := make([]float64, m.N)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	want := make([]float64, m.N)
	m.mulGenericRows(want, x, 0, m.N)
	if m.stn.Load() != nil {
		t.Fatal("pattern analysed before first use")
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(auto bool) {
			defer wg.Done()
			got := make([]float64, m.N)
			if auto {
				m.MulVecAuto(got, x)
			} else {
				m.MulVec(got, x)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					errs <- "stencil SpMV differs from the generic loop"
					return
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if len(m.stencilPattern().runs) == 0 {
		t.Fatal("grid operator has no full-stencil runs")
	}
}
