package rm4

import (
	"math"
	"testing"

	"lcn3d/internal/network"
	"lcn3d/internal/power"
	"lcn3d/internal/stack"
	"lcn3d/internal/thermal"
)

// The factored path rescales the convection block in place and warm-starts
// each solve from a combination of cached fields. A model that has probed many
// pressures must agree with a freshly built model at every one of them.

func equivModel(t *testing.T, seed int64) *Model {
	t.Helper()
	pm := power.Hotspots(d21, seed, 3, 0.6, 1.2)
	s, err := stack.NewDieStack(stack.Config{Dims: d21, ChannelHeight: 200e-6},
		[]*power.Map{pm.Clone(), pm})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := network.Tree(d21, network.UniformTreeSpec(d21, 1, network.Branch2, 0.3, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(s, []*network.Network{tr}, thermal.Central)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Non-monotone sweep: warm starts jump between cached fields and the
// preconditioner serves pressures far from where it was built.
var equivSweep = []float64{10e3, 40e3, 15e3, 60e3, 11e3, 25e3, 60e3, 6e3}

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

func TestIncrementalMatchesFromScratch4RM(t *testing.T) {
	shared := equivModel(t, 5)
	tighten(t, shared)
	for _, p := range equivSweep {
		oShared, err := shared.Simulate(p)
		if err != nil {
			t.Fatalf("shared model at %g Pa: %v", p, err)
		}
		fresh := equivModel(t, 5)
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

func TestReassembledSystemMatchesFreshBuild4RM(t *testing.T) {
	// In-place rewrites are a pure function of the pressure: after a long
	// sweep the system served at any pressure is bitwise identical to a
	// never-probed model's.
	shared := equivModel(t, 9)
	for _, p := range equivSweep {
		if _, err := shared.Simulate(p); err != nil {
			t.Fatal(err)
		}
	}
	fresh := equivModel(t, 9)
	const p = 22e3
	sA, err := shared.System(p)
	if err != nil {
		t.Fatal(err)
	}
	sB, err := fresh.System(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sA.A.Vals) != len(sB.A.Vals) || len(sA.B) != len(sB.B) {
		t.Fatalf("system shapes differ: %d/%d vals, %d/%d rhs",
			len(sA.A.Vals), len(sB.A.Vals), len(sA.B), len(sB.B))
	}
	for k := range sA.A.Vals {
		if sA.A.Vals[k] != sB.A.Vals[k] {
			t.Fatalf("matrix value %d drifted: %g vs %g", k, sA.A.Vals[k], sB.A.Vals[k])
		}
	}
	for i := range sA.B {
		if sA.B[i] != sB.B[i] {
			t.Fatalf("rhs value %d drifted: %g vs %g", i, sA.B[i], sB.B[i])
		}
	}
}
