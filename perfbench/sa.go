package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"lcn3d/internal/anneal"
	"lcn3d/internal/core"
	"lcn3d/internal/grid"
	"lcn3d/internal/iccad"
	"lcn3d/internal/network"
	"lcn3d/internal/rm4"
	"lcn3d/internal/thermal"
)

// sa-p1 runs the paper's design flow: SolveProblem1 on ICCAD case 1 with
// the default stage schedule (2RM screening, 4RM finish) and its final
// 4RM evaluation, Parallelism = nproc. The seed drives the annealer.

// Correctness bounds of the sa-p1 gates.
const (
	// reevalTol bounds the relative W_pump difference between the
	// solve's final evaluation and a re-evaluation on a fresh 4RM model;
	// both run the same probes from a cold start, so they agree to
	// rounding.
	reevalTol = 1e-6
	// energyTol bounds |carried − injected| / injected of the final
	// design at its chosen pressure (solver tolerance plus discretization
	// of the outlet enthalpy).
	energyTol = 1e-3
)

// barrier is one Progress callback: every chain of a stage reached
// iteration iter at time at.
type barrier struct {
	at    time.Time
	stage int
	iter  int
}

// solveTimed runs SolveProblem1 and returns the solution, its wall-clock
// interval and the exchange-barrier timestamps.
func solveTimed(ctx context.Context, inst *iccad.Benchmark, seed int64) (*core.Solution, time.Time, time.Time, []barrier, error) {
	var bars []barrier
	opt := core.Options{
		Seed:        seed,
		Parallelism: runtime.NumCPU(),
		Progress: func(stage int, cp []anneal.ChainProgress) {
			bars = append(bars, barrier{at: time.Now(), stage: stage, iter: cp[0].Iteration})
		},
	}
	t0 := time.Now()
	sol, err := inst.SolveProblem1Ctx(ctx, opt)
	t1 := time.Now()
	return sol, t0, t1, bars, err
}

// iterationTimes turns barrier timestamps into per-SA-iteration
// latencies (ms). The interval ending at the first barrier also holds
// the structure sweep, so it is left out.
func iterationTimes(bars []barrier) []float64 {
	var out []float64
	for i := 1; i < len(bars); i++ {
		prev, cur := bars[i-1], bars[i]
		adv := cur.iter
		if cur.stage == prev.stage {
			adv -= prev.iter
		}
		if adv > 0 {
			out = append(out, float64(cur.at.Sub(prev.at).Microseconds())/1e3/float64(adv))
		}
	}
	return out
}

// stageEnds returns when each stage's last barrier fired.
func stageEnds(bars []barrier) map[int]time.Time {
	ends := map[int]time.Time{}
	for _, br := range bars {
		ends[br.stage] = br.at
	}
	return ends
}

func loadCase(id int) (*iccad.Benchmark, error) {
	return iccad.LoadScaled(id, grid.Dims{NX: scale, NY: scale})
}

// replicate binds one network to every channel layer of the stack.
func replicate(inst *iccad.Benchmark, n *network.Network) []*network.Network {
	nets := make([]*network.Network, len(inst.Stk.ChannelLayers()))
	for i := range nets {
		nets[i] = n
	}
	return nets
}

// eval4RM runs Algorithm 2 on a fresh 4RM model of n.
func eval4RM(ctx context.Context, inst *iccad.Benchmark, n *network.Network) (core.EvalResult, *rm4.Model, error) {
	m, err := rm4.New(inst.Stk, replicate(inst, n), thermal.Central)
	if err != nil {
		return core.EvalResult{}, nil, err
	}
	r, err := core.EvaluatePumpMin(ctx, core.Memo(m.Simulate), inst.DeltaTStar, inst.TmaxStar, core.SearchOptions{})
	return r, m, err
}

func runSA(b *bench) error {
	// Set-up loads the case and evaluates the straight-channel baseline
	// on 4RM: the reference design the flow's result must beat.
	type saSetup struct {
		inst *iccad.Benchmark
		base core.EvalResult
	}
	s, err := setupMedian(b, 5, func() (saSetup, error) {
		inst, err := loadCase(1)
		if err != nil {
			return saSetup{}, err
		}
		straight := network.Straight(inst.Stk.Dims, grid.SideWest, 1)
		inst.ApplyKeepout(straight)
		base, _, err := eval4RM(b.ctx, inst, straight)
		if err != nil {
			return saSetup{}, fmt.Errorf("straight baseline: %w", err)
		}
		return saSetup{inst, base}, nil
	}, nil)
	if err != nil {
		return err
	}
	inst := s.inst
	b.attempted = 1
	phase0 := time.Now()
	sol, t0, t1, bars, err := solveTimed(b.ctx, inst, b.seed)
	if err != nil {
		b.failed = 1
		return fmt.Errorf("SolveProblem1: %w", err)
	}
	// One design run is sa-p1's user-visible operation, and a run makes
	// one, so its median and tail are that run's latency.
	wall := t1.Sub(t0).Seconds()
	b.set("wall_s", wall)
	b.setDist("p50_ms", "tail_ms", summarize([]float64{wall * 1e3}))
	b.set("ops_per_s", float64(sol.Evals)/wall)
	it := summarize(iterationTimes(bars))
	b.note("SA iteration: p50 %.1f ms, max %.1f ms over %d barrier intervals", it.P50, it.Tail, it.N)
	b.set("ok_frac", 1)
	b.note("sa: %d evaluations, W_pump %.6g W, P_sys %.6g Pa, cache %d hits / %d misses",
		sol.Evals, sol.Eval.Wpump, sol.Eval.Psys, sol.Cache.Hits, sol.Cache.Misses)

	var gateSpan int
	if b.traced() {
		top := b.tr.record("sa.solve", 0, 0, t0, t1)
		recordStages(b, top, t0, t1, bars)
		b.set("anneal.evals", float64(sol.Evals))
		b.set("anneal.topo_hit_rate", sol.Cache.HitRate())
		b.set("anneal.wpump_mw", sol.Eval.Wpump*1e3)
		// Nothing inside the solve is traced: its spans are rebuilt
		// afterwards from the Progress barrier times, which the timed
		// run collects as well, so the solve runs the same code either
		// way and tracing adds nothing to it.
		b.set("trace.overhead_frac", 0)
		b.note("trace overhead: 0, the solve path is not instrumented")
		if err := replaySA(b, inst, sol, t0, t1, bars); err != nil {
			return err
		}
		gateSpan = b.tr.begin("sa.gates", 0, 0)
	}
	if err := saGates(b, inst, sol, s.base); err != nil {
		return err
	}
	if b.traced() {
		b.tr.end(gateSpan)
		finishTrace(b, phase0)
	}
	return nil
}

// saGates re-evaluates the final design on a fresh 4RM model and checks
// it against the constraints, the energy balance and the straight
// baseline evaluated at set-up.
func saGates(b *bench, inst *iccad.Benchmark, sol *core.Solution, base core.EvalResult) error {
	re, m4, err := eval4RM(b.ctx, inst, sol.Net)
	if err != nil {
		return fmt.Errorf("re-evaluate final design: %w", err)
	}
	b.gate(re.Feasible == sol.Eval.Feasible && relDiff(re.Wpump, sol.Eval.Wpump) <= reevalTol,
		"fresh 4RM re-evaluation: feasible %v/%v, W_pump %.9g vs %.9g (bound %g relative)",
		re.Feasible, sol.Eval.Feasible, re.Wpump, sol.Eval.Wpump, reevalTol)
	ev := sol.Eval
	b.gate(ev.Feasible && ev.Out != nil && ev.DeltaT <= inst.DeltaTStar*(1+1e-9) && ev.Out.Tmax <= inst.TmaxStar*(1+1e-9),
		"final design meets ΔT* %.3g K (ΔT %.4g) and T*max %.5g K", inst.DeltaTStar, ev.DeltaT, inst.TmaxStar)
	carried, injected, err := m4.EnergyBalance(re.Psys)
	if err != nil {
		return fmt.Errorf("energy balance: %w", err)
	}
	b.gate(relDiff(carried, injected) <= energyTol,
		"energy balance at %.6g Pa: carried %.6g W, injected %.6g W (bound %g relative)", re.Psys, carried, injected, energyTol)

	b.gate(ev.Wpump < base.Wpump, "design W_pump %.6g W beats the straight baseline %.6g W", ev.Wpump, base.Wpump)
	return nil
}

// recordStages turns barrier timestamps into stage spans under top and
// the matching anneal.* metrics. Stage 1's span also holds the structure
// sweep; anneal.stage1_s has the replayed sweep time taken out later.
func recordStages(b *bench, top int, t0, t1 time.Time, bars []barrier) {
	ends := stageEnds(bars)
	prev := t0
	for s := 0; s < 4; s++ {
		end, ok := ends[s]
		if !ok {
			continue
		}
		b.tr.record(fmt.Sprintf("anneal.stage%d", s+1), top, 0, prev, end)
		b.set(fmt.Sprintf("anneal.stage%d_s", s+1), end.Sub(prev).Seconds())
		prev = end
	}
	b.tr.record("anneal.final", top, 0, prev, t1)
	b.set("anneal.final_s", t1.Sub(prev).Seconds())
}

// finishTrace writes the spans and reports coverage of the traced phase.
func finishTrace(b *bench, phaseStart time.Time) {
	spans := b.tr.snapshot()
	cov := coverage(spans, b.tr.since(phaseStart), b.tr.since(time.Now()))
	b.set("trace.coverage", cov)
	b.set("trace.spans", float64(len(spans)))
	b.gate(cov >= 0.95, "top-level spans cover %.1f%% of the traced phase (need 95%%)", 100*cov)
	path := fmt.Sprintf("%s/trace/%s-seed%d.json", outDir, b.workload, b.seed)
	if err := writeTrace(path, spans); err != nil {
		b.note("trace not written: %v", err)
		return
	}
	b.note("trace: %d spans written to %s", len(spans), path)
}
