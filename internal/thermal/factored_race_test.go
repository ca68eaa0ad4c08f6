package thermal

import (
	"runtime"
	"sync"
	"testing"

	"lcn3d/internal/sparse"
)

// raceFactored builds a small solvable factored system: a 1D advection
// pipe whose convection block scales with the flow (pressure) factor.
func raceFactored(tb testing.TB, n int) *Factored {
	tb.Helper()
	a := NewAssembler(n, Central)
	a.ConvectionInlet(0, 0.5, 300)
	for i := 0; i+1 < n; i++ {
		a.Convection(i, i+1, 0.5)
		a.Conductance(i, i+1, 0.05)
	}
	a.ConvectionOutlet(n-1, 0.5)
	for i := 0; i < n; i++ {
		a.Source(i, 1.0)
	}
	return a.Factor()
}

// TestParallelSolveBitwiseDeterministic factors a system large enough
// for the parallel SpMV path and checks the solved field is bitwise
// identical across SpMV worker counts and GOMAXPROCS settings. Run under
// -race (CI does) this also proves the parallel solve has no data races.
// The sliced-row kernel writes each row from exactly one worker with one
// summation order, so the whole Krylov trajectory — and therefore the
// solution — must not depend on scheduling.
func TestParallelSolveBitwiseDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a >20k-unknown system several times")
	}
	const scale = 2.0
	n := 21000 // above sparse.parallelThreshold

	solve := func() []float64 {
		temps, _, _, err := raceFactored(t, n).SolveAt(scale, 300)
		if err != nil {
			t.Fatal(err)
		}
		return temps
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ref := solve()
	for _, cfg := range []struct {
		procs, workers int
	}{
		{0, 1}, {0, 2}, {0, 3}, {2, 0}, {4, 7},
	} {
		if cfg.procs > 0 {
			runtime.GOMAXPROCS(cfg.procs)
		}
		sparse.SetSpMVWorkers(cfg.workers)
		got := solve()
		sparse.SetSpMVWorkers(0)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("procs=%d workers=%d: node %d differs: %v vs %v",
					cfg.procs, cfg.workers, i, got[i], ref[i])
			}
		}
	}
}

// TestStatsConcurrentWithSolves hammers Stats() from many goroutines
// while probes run, proving the counters can be scraped mid-solve. Run
// under -race (CI does) this is the FactorStats data-race regression
// test; without -race it still checks monotonic consistency.
func TestStatsConcurrentWithSolves(t *testing.T) {
	f := raceFactored(t, 64)
	const (
		readers = 4
		probes  = 40
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastProbes int
			for {
				select {
				case <-done:
					return
				default:
				}
				st := f.Stats()
				if st.Probes < lastProbes {
					t.Errorf("probe counter went backwards: %d -> %d", lastProbes, st.Probes)
					return
				}
				lastProbes = st.Probes
				if st.WarmStarts > st.Probes {
					t.Errorf("warm starts %d exceed probes %d", st.WarmStarts, st.Probes)
					return
				}
				_ = st.WarmStartRate()
			}
		}()
	}

	scales := []float64{0.5, 1, 2, 4, 1.5, 3}
	var solveWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		solveWG.Add(1)
		go func(w int) {
			defer solveWG.Done()
			for i := 0; i < probes; i++ {
				if _, _, _, err := f.SolveAt(scales[(i+w)%len(scales)], 300); err != nil {
					t.Errorf("solve: %v", err)
					return
				}
			}
		}(w)
	}
	solveWG.Wait()
	close(done)
	wg.Wait()

	st := f.Stats()
	if st.Probes != 2*probes {
		t.Fatalf("probes = %d, want %d", st.Probes, 2*probes)
	}
	if st.SolveIters == 0 || st.PrecondBuilds == 0 {
		t.Fatalf("expected nonzero solve iters and precond builds, got %+v", st)
	}
}
