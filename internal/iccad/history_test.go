package iccad

import (
	"context"
	"math"
	"testing"

	"lcn3d/internal/core"
	"lcn3d/internal/grid"
	"lcn3d/internal/network"
	"lcn3d/internal/rm2"
	"lcn3d/internal/rm4"
	"lcn3d/internal/thermal"
)

// TestEvaluationIndependentOfWarmHistory evaluates one canonical network
// with Algorithm 2 on fresh rm2 and rm4 models, and again on models first
// warmed by an unrelated decade-spanning pressure sweep. Warm starts only
// move where the iterative solves begin, so the verdict and the chosen
// P_sys must be identical and T_max and ΔT agree within 1e-6 relative:
// the contract the content-addressed result cache relies on.
func TestEvaluationIndependentOfWarmHistory(t *testing.T) {
	b, err := LoadScaled(1, grid.Dims{NX: 21, NY: 21})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := network.Tree(b.Stk.Dims, network.UniformTreeSpec(b.Stk.Dims, 2, network.Branch2, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]*network.Network, len(b.Stk.ChannelLayers()))
	for i := range nets {
		nets[i] = tree
	}
	models := []struct {
		name  string
		build func() (core.SimFunc, error)
	}{
		{"rm2", func() (core.SimFunc, error) {
			m, err := rm2.New(b.Stk, nets, 3, thermal.Central)
			if err != nil {
				return nil, err
			}
			return m.Simulate, nil
		}},
		{"rm4", func() (core.SimFunc, error) {
			m, err := rm4.New(b.Stk, nets, thermal.Central)
			if err != nil {
				return nil, err
			}
			return m.Simulate, nil
		}},
	}
	sweep := []float64{200e3, 3e3, 60e3, 400, 15e3, 90, 7e3, 1.5e6, 30}
	evaluate := func(sim core.SimFunc) core.EvalResult {
		t.Helper()
		ev, err := core.EvaluatePumpMin(context.Background(), core.Memo(sim), b.DeltaTStar, b.TmaxStar, core.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	for _, mc := range models {
		fresh, err := mc.build()
		if err != nil {
			t.Fatal(err)
		}
		want := evaluate(fresh)

		warmed, err := mc.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range sweep {
			if _, err := warmed(p); err != nil {
				t.Fatalf("%s warm-up at %g Pa: %v", mc.name, p, err)
			}
		}
		got := evaluate(warmed)
		t.Logf("%s: feasible=%v P_sys=%g Pa, T_max %.6f K, ΔT %.6f K",
			mc.name, want.Feasible, want.Psys, want.Out.Tmax, want.Out.DeltaT)

		if got.Feasible != want.Feasible || got.Psys != want.Psys {
			t.Fatalf("%s: warmed model chose feasible=%v P_sys=%g, fresh feasible=%v P_sys=%g",
				mc.name, got.Feasible, got.Psys, want.Feasible, want.Psys)
		}
		for _, q := range []struct {
			name      string
			got, want float64
		}{
			{"T_max", got.Out.Tmax, want.Out.Tmax},
			{"ΔT", got.Out.DeltaT, want.Out.DeltaT},
		} {
			if math.Abs(q.got-q.want) > 1e-6*math.Abs(q.want) {
				t.Errorf("%s %s: warmed %.12g, fresh %.12g", mc.name, q.name, q.got, q.want)
			}
		}
	}
}
