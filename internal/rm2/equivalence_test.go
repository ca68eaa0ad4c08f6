package rm2

import (
	"math"
	"testing"

	"lcn3d/internal/grid"
	"lcn3d/internal/network"
	"lcn3d/internal/power"
	"lcn3d/internal/stack"
	"lcn3d/internal/thermal"
)

// The factored simulation path reuses one assembled system across probes:
// the convection block is rescaled in place, solves warm-start from a
// combination of cached fields, and the preconditioner carries over. These tests
// pin down that none of that shared state leaks between pressures — a
// well-used model must agree with a freshly built one at every pressure.

func equivModel(t *testing.T, seed int64) *Model {
	t.Helper()
	pm := power.Hotspots(d21, seed, 3, 0.6, 1.2)
	s, err := stack.NewDieStack(stack.Config{Dims: d21, ChannelHeight: 200e-6},
		[]*power.Map{pm.Clone(), pm})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(s, []*network.Network{network.Straight(d21, grid.SideWest, 1)}, 3, thermal.Central)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sweep is deliberately non-monotone so warm starts jump between cached
// fields and the preconditioner sees pressures far from where it was built.
var equivSweep = []float64{8e3, 32e3, 12e3, 50e3, 9e3, 21e3, 50e3, 5e3}

// tighten drives a model's linear solves to a tolerance well below the
// 1e-9 equivalence criterion, so the comparison measures the amortization
// machinery rather than where two iterative solves happened to stop.
func tighten(t *testing.T, m *Model) {
	t.Helper()
	fact, err := m.factored()
	if err != nil {
		t.Fatal(err)
	}
	fact.SetTol(1e-12)
}

func TestIncrementalMatchesFromScratch2RM(t *testing.T) {
	shared := equivModel(t, 7)
	tighten(t, shared)
	for _, p := range equivSweep {
		oShared, err := shared.Simulate(p)
		if err != nil {
			t.Fatalf("shared model at %g Pa: %v", p, err)
		}
		fresh := equivModel(t, 7)
		tighten(t, fresh)
		oFresh, err := fresh.Simulate(p)
		if err != nil {
			t.Fatalf("fresh model at %g Pa: %v", p, err)
		}
		for l := range oFresh.SourceTemps {
			for i := range oFresh.SourceTemps[l] {
				a, b := oShared.SourceTemps[l][i], oFresh.SourceTemps[l][i]
				if math.Abs(a-b) > 1e-9*math.Abs(b) {
					t.Fatalf("at %g Pa layer %d cell %d: incremental %g vs from-scratch %g (rel %g)",
						p, l, i, a, b, math.Abs(a-b)/math.Abs(b))
				}
			}
		}
		if math.Abs(oShared.Qsys-oFresh.Qsys) > 1e-12*oFresh.Qsys {
			t.Fatalf("at %g Pa: Qsys %g vs %g", p, oShared.Qsys, oFresh.Qsys)
		}
	}
	st := shared.FactorStats()
	if st.Probes != len(equivSweep) {
		t.Fatalf("probes %d, want %d", st.Probes, len(equivSweep))
	}
	if st.WarmStarts == 0 {
		t.Fatal("sweep never warm-started; the equivalence test is not exercising the fast path")
	}
}

func TestReassembledSystemMatchesFreshBuild2RM(t *testing.T) {
	// After a long sweep of in-place rewrites, the shared model's system at
	// a pressure must be bitwise identical to a never-probed model's: the
	// rewrite is a pure function of the pressure, with no drift.
	shared := equivModel(t, 11)
	for _, p := range equivSweep {
		if _, err := shared.Simulate(p); err != nil {
			t.Fatal(err)
		}
	}
	fresh := equivModel(t, 11)
	if _, err := fresh.factored(); err != nil {
		t.Fatal(err)
	}
	const p = 17e3
	mA, bA := shared.fact.SystemAt(p)
	mB, bB := fresh.fact.SystemAt(p)
	if len(mA.Vals) != len(mB.Vals) || len(bA) != len(bB) {
		t.Fatalf("system shapes differ: %d/%d vals, %d/%d rhs", len(mA.Vals), len(mB.Vals), len(bA), len(bB))
	}
	for k := range mA.Vals {
		if mA.Vals[k] != mB.Vals[k] {
			t.Fatalf("matrix value %d drifted: %g vs %g", k, mA.Vals[k], mB.Vals[k])
		}
	}
	for i := range bA {
		if bA[i] != bB[i] {
			t.Fatalf("rhs value %d drifted: %g vs %g", i, bA[i], bB[i])
		}
	}
}
