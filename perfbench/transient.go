package main

import (
	"fmt"
	"math/rand"
	"time"

	"lcn3d/internal/grid"
	"lcn3d/internal/network"
	"lcn3d/internal/rm4"
	"lcn3d/internal/scenario"
	"lcn3d/internal/thermal"
)

// transient-4rm runs scenario.Run on a 4RM model of case 1 (straight
// channels) over seeded schedules with a pump spin-up ramp, a DVFS step,
// a migrating hotspot and a partial pump failure, so every trace crosses
// several (dt, P_sys) segments. It exercises the many-right-hand-side
// stepping path and one factorization per segment, and bypasses cold
// assembly of new networks, the annealer and the service.

// Trace shape: 100 steps of 2 ms at a 10 kPa base pressure.
const (
	trDt    = 2e-3
	trSteps = 100
	trPsys  = 10e3
)

// transientSpec draws trace i's schedule from the workload seed.
func transientSpec(seed int64, i int) *scenario.Spec {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	dvfs0 := u(0.02, 0.06)
	hot0 := u(0, 0.05)
	fail0 := u(0.1, 0.14)
	return &scenario.Spec{
		Dt: trDt, Steps: trSteps, Psys: trPsys,
		Power: []scenario.PowerEvent{
			{Kind: "dvfs", Layer: -1, T0: dvfs0, T1: dvfs0 + u(0.05, 0.1), Factor: u(1.3, 2)},
			{Kind: "hotspot", Layer: 0, T0: hot0, T1: hot0 + 0.1,
				X0: u(0.2, 0.8), Y0: u(0.2, 0.8), X1: u(0.2, 0.8), Y1: u(0.2, 0.8),
				Sigma: 0.05, Watts: u(1, 3)},
		},
		Pump: []scenario.PumpEvent{
			{Kind: "ramp", T0: 0, T1: 4 * trDt, Frac: 0.5},
			{Kind: "fail", T0: fail0, T1: fail0 + u(0.02, 0.04), Frac: u(0.3, 0.7)},
		},
	}
}

// stepSample is one step's latency; seg marks the first step of a new
// (dt, P_sys) segment, which refactorizes.
type stepSample struct {
	ms  float64
	seg bool
}

// traceOut is what one completed trace reports.
type traceOut struct {
	wall  time.Duration
	steps []stepSample
	stats thermal.TransientStats
}

// runTrace integrates one schedule, timing each step from outside via
// the step observer, and checks every recorded value is finite.
func runTrace(b *bench, m *rm4.Model, spec *scenario.Spec, tr *tracer, req int) (traceOut, error) {
	var out traceOut
	var stamps []time.Time
	var psys []float64
	finiteOK := true
	t0 := time.Now()
	res, err := scenario.Run(b.ctx, m, spec, func(r scenario.StepRecord) error {
		stamps = append(stamps, time.Now())
		psys = append(psys, r.Psys)
		finiteOK = finiteOK && finite(r.T, r.Psys, r.Tpeak, r.DeltaT, r.PumpW)
		return nil
	})
	t1 := time.Now()
	if err != nil {
		return out, err
	}
	out.wall, out.stats = t1.Sub(t0), res.Stats
	top := tr.record("transient.trace", 0, req, t0, t1)
	prev := t0
	for k, at := range stamps {
		seg := k == 0 || psys[k] != psys[k-1]
		out.steps = append(out.steps, stepSample{ms: float64(at.Sub(prev).Microseconds()) / 1e3, seg: seg})
		name := "transient.step"
		if seg {
			name = "transient.segment_step"
		}
		tr.record(name, top, req, prev, at)
		prev = at
	}
	b.gate(finiteOK && finite(res.Peak, res.Final, res.FinalDT, res.PumpEnergy),
		"trace %d: every step value finite", req)
	b.gate(res.Stats.PrecondBuilds <= res.Stats.Segments,
		"trace %d: %d preconditioner builds <= %d segments", req, res.Stats.PrecondBuilds, res.Stats.Segments)
	return out, nil
}

// transientWindow runs traces back to back on one model until the window
// has passed, starting schedules at index first.
func transientWindow(b *bench, m *rm4.Model, tr *tracer, first int) ([]traceOut, time.Duration, error) {
	var outs []traceOut
	t0 := time.Now()
	for i := first; time.Since(t0) < b.window; i++ {
		b.attempted++
		o, err := runTrace(b, m, transientSpec(b.seed, i), tr, i+1)
		if err != nil {
			b.failed++
			return outs, time.Since(t0), fmt.Errorf("trace %d: %w", i, err)
		}
		outs = append(outs, o)
	}
	return outs, time.Since(t0), nil
}

func stepStats(outs []traceOut) (all, seg []float64, steps int) {
	for _, o := range outs {
		for _, s := range o.steps {
			all = append(all, s.ms)
			if s.seg {
				seg = append(seg, s.ms)
			}
		}
		steps += len(o.steps)
	}
	return all, seg, steps
}

func runTransient(b *bench) error {
	// One set-up takes ~25 ms on a 2-CPU box, short enough for a GC
	// pause or a descheduling to move it by half; the median of many is
	// steady.
	m, err := setupMedian(b, 41, func() (*rm4.Model, error) {
		inst, err := loadCase(1)
		if err != nil {
			return nil, err
		}
		n := network.Straight(inst.Stk.Dims, grid.SideWest, 1)
		m, err := rm4.New(inst.Stk, replicate(inst, n), thermal.Central)
		if err != nil {
			return nil, err
		}
		// Compiling a stepper assembles the model's factored system once;
		// every trace then derives its own stepper from it.
		_, err = m.Transient(trPsys, trDt)
		return m, err
	}, nil)
	if err != nil {
		return err
	}
	// The traced run first repeats the timed window untraced, then runs
	// the same schedules traced; the step-time ratio is the overhead.
	if !b.traced() {
		outs, elapsed, err := transientWindow(b, m, nil, 0)
		if err != nil {
			return err
		}
		all, seg, steps := stepStats(outs)
		var walls []float64
		for _, o := range outs {
			walls = append(walls, o.wall.Seconds())
		}
		// tail_ms is the tail of the segment-change steps, the slowest
		// kind of step. Over all steps the ten slowest are host and GC
		// spikes among ~900 ordinary steps, which swing from run to run.
		d, sd := summarize(all), summarize(seg)
		b.set("wall_s", medianOf(walls))
		b.set("p50_ms", d.P50)
		b.set("tail_ms", sd.Tail)
		b.set("ops_per_s", float64(steps)/elapsed.Seconds())
		b.set("ok_frac", ratio(float64(b.attempted-b.failed), float64(b.attempted)))
		b.note("transient: %d traces, %d steps (p50 %.3f ms, tail %.3f ms at p%.1f), %d segment-change steps (tail at p%.1f) in %.2f s",
			len(outs), steps, d.P50, d.Tail, d.TailPc, len(seg), sd.TailPc, elapsed.Seconds())
		return nil
	}
	base, _, err := transientWindow(b, m, nil, 0)
	if err != nil {
		return err
	}
	phase0 := time.Now()
	outs, _, err := transientWindow(b, m, b.tr, 0)
	if err != nil {
		return err
	}
	baseAll, _, _ := stepStats(base)
	all, seg, steps := stepStats(outs)
	b.set("trace.overhead_frac", mean(all)/mean(baseAll)-1)
	d := summarize(all)
	b.setDist("transient.step_ms.p50", "transient.step_ms.tail", d)
	b.set("transient.segment_step_ms", medianOf(seg))
	var fam family
	var segs int
	for _, o := range outs {
		fam.add(o.stats.FactorStats)
		segs += o.stats.Segments
	}
	builds := fam.fs.PrecondBuilds
	b.set("transient.factorizations", ratio(float64(builds), float64(len(outs))))
	b.set("transient.iters_per_step", ratio(float64(fam.fs.SolveIters), float64(steps)))
	setFactorStats(b, fam.fs, int64(sum(all)*1e6))
	b.note("transient: %d traces, %d steps, %d segments, %d factorizations", len(outs), steps, segs, builds)
	finishTrace(b, phase0)
	return nil
}
