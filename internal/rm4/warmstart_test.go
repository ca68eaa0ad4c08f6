package rm4_test

import (
	"context"
	"math"
	"testing"

	"lcn3d/internal/core"
	"lcn3d/internal/grid"
	"lcn3d/internal/iccad"
	"lcn3d/internal/network"
	"lcn3d/internal/rm4"
	"lcn3d/internal/solver"
	"lcn3d/internal/thermal"
)

// TestProjectedWarmStartBeatsNearestField runs the probe sequence of one
// scale-21 4RM Algorithm 2 evaluation and replays every warm probe from
// the single nearest cached field, the start the solver used before it
// projected onto several. The projected start must never have a larger
// initial residual, must save at least 40 % of the iterations, and must
// not cost extra preconditioner builds: a warm start that converges in a
// few iterations right after a build must not set a quality baseline
// that later, farther probes trip into rebuilding.
func TestProjectedWarmStartBeatsNearestField(t *testing.T) {
	prev := thermal.GetPrecondStrategy()
	thermal.SetPrecondStrategy(thermal.PrecondILU)
	t.Cleanup(func() { thermal.SetPrecondStrategy(prev) })

	b, err := iccad.LoadScaled(1, grid.Dims{NX: 21, NY: 21})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := network.Tree(b.Stk.Dims, network.UniformTreeSpec(b.Stk.Dims, 2, network.Branch2, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rm4.New(b.Stk, []*network.Network{tree}, thermal.Central)
	if err != nil {
		t.Fatal(err)
	}

	type field struct {
		s float64
		t []float64
	}
	var (
		cache                []field
		fact                 *thermal.Factored
		projIters, nearIters int
		warmProbes           int
	)
	sim := func(p float64) (*thermal.Outcome, error) {
		// The nearest cached field in log scale, first in cache order on
		// ties, and its solve with a fresh ILU(0) at this pressure.
		var nearest []float64
		best := math.Inf(1)
		for _, c := range cache {
			if d := math.Abs(math.Log(p / c.s)); d < best {
				best, nearest = d, c.t
			}
		}
		var rNear float64
		var ref solver.Result
		if nearest != nil {
			mat, rhs := fact.SystemAt(p)
			x := append([]float64(nil), nearest...)
			rNear = solver.RelResidual(mat, rhs, x)
			ref, err = solver.BiCGSTAB(mat, rhs, x, solver.Options{
				Tol: 1e-10, MaxIter: 40 * len(x), Precond: solver.BestPrecond(mat),
			})
			if err != nil {
				t.Fatalf("nearest-field reference at %g Pa: %v", p, err)
			}
		}

		out, temps, f, err := rm4.SimulateField(m, p)
		if err != nil {
			return nil, err
		}
		fact = f
		if nearest != nil {
			if !out.Probe.WarmStarted {
				t.Fatalf("probe at %g Pa had cached fields but started cold", p)
			}
			if out.Probe.StartResidual > rNear {
				t.Errorf("probe at %g Pa: projected start residual %.3g above the nearest field's %.3g",
					p, out.Probe.StartResidual, rNear)
			}
			projIters += out.SolveIters
			nearIters += ref.Iterations
			warmProbes++
			t.Logf("%9.1f Pa: start residual %.2e (nearest %.2e), %3d iterations (nearest %3d)",
				p, out.Probe.StartResidual, rNear, out.SolveIters, ref.Iterations)
		}
		stored := false
		for i := range cache {
			if cache[i].s == p {
				cache[i].t, stored = temps, true
			}
		}
		if !stored {
			// The solver's cache keeps the 8 most recent pressures.
			if cache = append(cache, field{p, temps}); len(cache) > 8 {
				cache = cache[1:]
			}
		}
		return out, nil
	}

	if _, err := core.EvaluatePumpMin(context.Background(), core.Memo(sim), b.DeltaTStar, b.TmaxStar, core.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if warmProbes < 8 {
		t.Fatalf("only %d warm probes: the sequence no longer exercises the warm path", warmProbes)
	}
	t.Logf("%d warm probes: %d iterations projected, %d from the nearest field; %d precond builds", warmProbes, projIters, nearIters, m.FactorStats().PrecondBuilds)
	if float64(projIters) > 0.6*float64(nearIters) {
		t.Errorf("projected starts took %d iterations over %d warm probes, nearest-field starts %d: want <= 0.6x",
			projIters, warmProbes, nearIters)
	}
	// nearestFieldBuilds is the ILU(0) build count of this exact sequence
	// with nearest-field starts.
	const nearestFieldBuilds = 11
	if st := m.FactorStats(); st.PrecondBuilds > nearestFieldBuilds {
		t.Errorf("%d preconditioner builds, nearest-field starts needed %d", st.PrecondBuilds, nearestFieldBuilds)
	}
}

// TestConvergedWarmProbeAllocations pins the allocations of a warm 4RM
// probe whose start already meets the tolerance: the projection and the
// BiCGSTAB rungs work in the Factored's scratch, so the only allocation
// left is the field returned to the caller.
func TestConvergedWarmProbeAllocations(t *testing.T) {
	b, err := iccad.LoadScaled(1, grid.Dims{NX: 21, NY: 21})
	if err != nil {
		t.Fatal(err)
	}
	st := network.Straight(b.Stk.Dims, grid.SideWest, 1)
	b.ApplyKeepout(st)
	m, err := rm4.New(b.Stk, []*network.Network{st}, thermal.Central)
	if err != nil {
		t.Fatal(err)
	}
	const p = 12e3
	for _, q := range []float64{8e3, 10e3, 14e3, p} {
		if _, _, _, err := rm4.SimulateField(m, q); err != nil {
			t.Fatal(err)
		}
	}
	_, _, fact, err := rm4.SimulateField(m, p)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		_, res, probe, err := fact.SolveAt(p, b.Stk.TinK)
		if err != nil || res.Iterations != 0 || !probe.WarmStarted {
			t.Fatalf("probe at a solved pressure: %d iterations, warm %v, err %v", res.Iterations, probe.WarmStarted, err)
		}
	})
	if allocs > 1 {
		t.Errorf("converged warm probe made %.1f allocations, want 1 (the returned field)", allocs)
	}
}
