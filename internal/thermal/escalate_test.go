package thermal

import (
	"math"
	"testing"

	"lcn3d/internal/faults"
	"lcn3d/internal/solver"
)

// solveClean returns the uninjected reference field for the standard
// race-test pipe at the given scale.
func solveClean(t *testing.T, n int, scale float64) []float64 {
	t.Helper()
	f := raceFactored(t, n)
	temps, _, probe, err := f.SolveAt(scale, 300)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Rung != solver.RungPrimary || probe.Degraded {
		t.Fatalf("clean solve used rung %v (degraded=%v), want primary", probe.Rung, probe.Degraded)
	}
	return temps
}

func maxAbsDiff(a, b []float64) float64 {
	var mx float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// TestEscalationLadder walks each rung of the thermal ladder by arming
// fault injections, and checks the degraded result still matches the
// clean solve within solver tolerance.
func TestEscalationLadder(t *testing.T) {
	const n, scale = 48, 2.0
	want := solveClean(t, n, scale)
	t.Cleanup(faults.Disarm)

	cases := []struct {
		name     string
		spec     string
		wantRung solver.Rung
		counters func(FactorStats) int
	}{
		{
			// First solve builds a fresh preconditioner, so the rebuild
			// rung is skipped and a BiCGSTAB breakdown lands on GMRES.
			name: "gmres", spec: "solver.bicgstab.breakdown=always",
			wantRung: solver.RungGMRES,
			counters: func(s FactorStats) int { return s.RetryGMRES },
		},
		{
			// A NaN slipped into an otherwise converged field must be
			// caught by the finiteness check and escalate the same way.
			name: "nan-field", spec: "thermal.nan=first:1",
			wantRung: solver.RungGMRES,
			counters: func(s FactorStats) int { return s.RetryGMRES },
		},
		{
			name: "dense", spec: "solver.bicgstab.breakdown=always;solver.gmres.breakdown=always",
			wantRung: solver.RungDense,
			counters: func(s FactorStats) int { return s.RetryDense },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := raceFactored(t, n)
			if err := faults.Arm(c.spec); err != nil {
				t.Fatal(err)
			}
			defer faults.Disarm()
			temps, _, probe, err := f.SolveAt(scale, 300)
			if err != nil {
				t.Fatalf("ladder did not recover: %v", err)
			}
			if probe.Rung != c.wantRung {
				t.Fatalf("rung = %v, want %v", probe.Rung, c.wantRung)
			}
			if !probe.Degraded {
				t.Fatalf("rung %v result not marked degraded", probe.Rung)
			}
			if !finiteField(temps) {
				t.Fatalf("non-finite field survived the ladder")
			}
			if d := maxAbsDiff(temps, want); d > 1e-4 {
				t.Fatalf("degraded field deviates by %g K from clean solve", d)
			}
			st := f.Stats()
			if c.counters(st) == 0 {
				t.Fatalf("rung counter not advanced: %+v", st)
			}
			if st.Degraded == 0 {
				t.Fatalf("degraded counter not advanced: %+v", st)
			}
		})
	}
}

// TestEscalationRebuildRung: with a stale (but reusable) preconditioner,
// a one-shot breakdown recovers on the rebuilt-preconditioner retry,
// which is a normal adaptation — not a degraded result.
func TestEscalationRebuildRung(t *testing.T) {
	const n, scale = 48, 2.0
	want := solveClean(t, n, scale)
	f := raceFactored(t, n)
	if _, _, _, err := f.SolveAt(scale, 300); err != nil {
		t.Fatal(err)
	}
	if err := faults.Arm("solver.bicgstab.breakdown=first:1"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	// Same scale: the cached preconditioner is reused, so freshPre is
	// false and the rebuild rung is eligible. The injected breakdown is
	// spent on the primary attempt; the retry succeeds.
	temps, _, probe, err := f.SolveAt(scale, 300)
	if err != nil {
		t.Fatal(err)
	}
	if probe.Rung != solver.RungRetry {
		t.Fatalf("rung = %v, want retry", probe.Rung)
	}
	if probe.Degraded {
		t.Fatal("retry rung must not be marked degraded")
	}
	if d := maxAbsDiff(temps, want); d > 1e-4 {
		t.Fatalf("retry field deviates by %g K", d)
	}
	if st := f.Stats(); st.RetryRebuild != 1 || st.Degraded != 0 {
		t.Fatalf("stats = %+v, want RetryRebuild=1 Degraded=0", st)
	}
}

// mgFactored builds the race-test pipe with a 4:1 coarse map so the
// factored system can route through the two-level multigrid
// preconditioner.
func mgFactored(tb testing.TB, n int) *Factored {
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
	agg := make([]int, n)
	for i := range agg {
		agg[i] = i / 4
	}
	a.SetCoarseMap(agg, (n+3)/4)
	return a.Factor()
}

// TestEscalationMultigridFallback walks the multigrid → ILU(0) rung: a
// fault at any V-cycle stage (smoother, restriction, coarse solve)
// poisons the preconditioner output, the primary BiCGSTAB attempt breaks
// down, and the retry rung latches multigrid off and recovers on a fresh
// ILU(0) factorization. The recovered result is a normal solve — not
// degraded — and subsequent probes stay on the classic path.
func TestEscalationMultigridFallback(t *testing.T) {
	const n, scale = 48, 2.0
	want := solveClean(t, n, scale)
	prev := GetPrecondStrategy()
	SetPrecondStrategy(PrecondMG)
	t.Cleanup(func() { SetPrecondStrategy(prev) })
	t.Cleanup(faults.Disarm)

	for _, point := range []string{
		"solver.mg.smoother", "solver.mg.restrict", "solver.mg.coarse",
	} {
		t.Run(point, func(t *testing.T) {
			f := mgFactored(t, n)
			if err := faults.Arm(point + "=always"); err != nil {
				t.Fatal(err)
			}
			defer faults.Disarm()
			temps, _, probe, err := f.SolveAt(scale, 300)
			if err != nil {
				t.Fatalf("multigrid fallback did not recover: %v", err)
			}
			if probe.Rung != solver.RungRetry {
				t.Fatalf("rung = %v, want retry (multigrid → ILU0)", probe.Rung)
			}
			if probe.Degraded {
				t.Fatal("ILU0 fallback is a full-quality solve, must not be degraded")
			}
			if d := maxAbsDiff(temps, want); d > 1e-4 {
				t.Fatalf("fallback field deviates by %g K from clean solve", d)
			}
			st := f.Stats()
			if st.RetryRebuild != 1 || st.Degraded != 0 {
				t.Fatalf("stats = %+v, want RetryRebuild=1 Degraded=0", st)
			}
			// Multigrid is latched off: the next probe must not revisit the
			// poisoned V-cycle even though the fault is still armed.
			if _, _, probe, err = f.SolveAt(scale*1.1, 300); err != nil {
				t.Fatalf("post-latch solve: %v", err)
			}
			if probe.Rung != solver.RungPrimary {
				t.Fatalf("post-latch rung = %v, want primary on ILU0", probe.Rung)
			}
		})
	}
}

// TestMultigridNeedsDirectCoarse: a coarse map too large for the dense
// coarse solve keeps the system on ILU(0) even when multigrid is forced.
func TestMultigridNeedsDirectCoarse(t *testing.T) {
	prev := GetPrecondStrategy()
	SetPrecondStrategy(PrecondMG)
	t.Cleanup(func() { SetPrecondStrategy(prev) })

	n := 4 * (solver.DenseCoarseMax + 1)
	f := mgFactored(t, n)
	if _, _, _, err := f.SolveAt(2.0, 300); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); f.Multigrid() != nil || st.MG.VCycles != 0 || st.MGLatchOffs != 0 {
		t.Fatalf("%d aggregates tried multigrid (dense coarse max %d): %+v",
			f.nAgg, solver.DenseCoarseMax, st)
	}
}

// TestEscalationMultigridToGMRES: when the V-cycle is poisoned AND the
// classic BiCGSTAB rung breaks down, the ladder must keep climbing —
// multigrid → ILU0 retry → GMRES — and flag the result degraded.
func TestEscalationMultigridToGMRES(t *testing.T) {
	const n, scale = 48, 2.0
	want := solveClean(t, n, scale)
	prev := GetPrecondStrategy()
	SetPrecondStrategy(PrecondMG)
	t.Cleanup(func() { SetPrecondStrategy(prev) })
	t.Cleanup(faults.Disarm)

	f := mgFactored(t, n)
	if err := faults.Arm("solver.mg.coarse=always;solver.bicgstab.breakdown=always"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	temps, _, probe, err := f.SolveAt(scale, 300)
	if err != nil {
		t.Fatalf("ladder did not recover: %v", err)
	}
	if probe.Rung != solver.RungGMRES {
		t.Fatalf("rung = %v, want gmres", probe.Rung)
	}
	if !probe.Degraded {
		t.Fatal("GMRES result must be marked degraded")
	}
	if d := maxAbsDiff(temps, want); d > 1e-4 {
		t.Fatalf("degraded field deviates by %g K from clean solve", d)
	}
	st := f.Stats()
	if st.RetryRebuild != 1 || st.RetryGMRES != 1 || st.Degraded != 1 {
		t.Fatalf("stats = %+v, want RetryRebuild=1 RetryGMRES=1 Degraded=1", st)
	}
}

// TestEscalationExhausted: a system too large for the dense rung, with
// every iterative rung broken, must fail with an error naming the rung
// it died on — never return a poisoned field.
func TestEscalationExhausted(t *testing.T) {
	f := raceFactored(t, solver.DenseFallbackMax+1)
	spec := "solver.bicgstab.breakdown=always;solver.gmres.breakdown=always"
	if err := faults.Arm(spec); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	temps, _, probe, err := f.SolveAt(2.0, 300)
	if err == nil {
		t.Fatal("want error when every eligible rung fails")
	}
	if temps != nil {
		t.Fatal("failed solve must not return a field")
	}
	if probe.Rung != solver.RungGMRES {
		t.Fatalf("died at rung %v, want gmres (dense ineligible at this size)", probe.Rung)
	}
}
