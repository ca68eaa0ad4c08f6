package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"lcn3d/internal/core"
	"lcn3d/internal/flow"
	"lcn3d/internal/iccad"
	"lcn3d/internal/network"
	"lcn3d/internal/rm2"
	"lcn3d/internal/rm4"
	"lcn3d/internal/thermal"
)

// SolveProblem1 hides its layers, so the traced sa-p1 run replays seeded
// candidate evaluations through the same public calls the annealer
// makes (network.Tree, CanonicalHash, rm2/rm4.New, Simulate,
// core.EvaluatePumpMin) and times each one.

// Replay sizes: enough candidates for stable means, few enough that a
// traced run stays well inside its time budget.
const (
	replayRM2   = 6
	replayRM4   = 3
	replayNaive = 2
	replayStep  = 2 // the late stages' tree-parameter step
)

// family accumulates the replayed evaluations of one model family.
type family struct {
	name                         string
	netBuild, netHash, flowSolve []float64 // ms per candidate
	build, cold, warm            []float64 // ms per model build / probe
	eval, searchSelf, probes     []float64 // per evaluation
	probeNS                      int64     // wall time inside probes
	memo                         core.MemoStats
	fs                           thermal.FactorStats
}

func (f *family) add(st thermal.FactorStats) {
	f.fs.Probes += st.Probes
	f.fs.WarmStarts += st.WarmStarts
	f.fs.PrecondBuilds += st.PrecondBuilds
	f.fs.PrecondUpdates += st.PrecondUpdates
	f.fs.SolveIters += st.SolveIters
	f.fs.AssemblyNS += st.AssemblyNS
	f.fs.RetryRebuild += st.RetryRebuild
	f.fs.RetryGMRES += st.RetryGMRES
	f.fs.RetryDense += st.RetryDense
	f.fs.Degraded += st.Degraded
	f.fs.MG.Add(st.MG)
}

func sum(xs []float64) float64 { return mean(xs) * float64(len(xs)) }

// shares splits one family's evaluation time into model building
// (network + thermal build), the cold probe, warm probes, and the
// search's own time.
func (f *family) shares() (build, cold, warm, search float64) {
	b := sum(f.netBuild) + sum(f.netHash) + sum(f.build)
	c, w, s := sum(f.cold), sum(f.warm), sum(f.searchSelf)
	t := b + c + w + s
	return ratio(b, t), ratio(c, t), ratio(w, t), ratio(s, t)
}

// fixedShares splits a stage-1 (one probe per candidate) evaluation into
// building and the cold probe.
func (f *family) fixedShares() (build, cold float64) {
	b := sum(f.netBuild) + sum(f.build)
	c := sum(f.cold)
	return ratio(b, b+c), ratio(c, b+c)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1e3 }

// timed runs fn inside a span and returns its duration in ms.
func timed(tr *tracer, name string, parent, req int, fn func()) float64 {
	id := tr.begin(name, parent, req)
	t0 := time.Now()
	fn()
	ms := msSince(t0)
	tr.end(id)
	return ms
}

// buildCandidate realizes a tree spec the way the annealer does.
func buildCandidate(inst *iccad.Benchmark, spec network.TreeSpec, o network.Orientation) (*network.Network, error) {
	n, err := network.Tree(inst.Stk.Dims, spec)
	if err != nil {
		return nil, err
	}
	n = o.Apply(n)
	inst.ApplyKeepout(n)
	if errs := n.Check(); len(errs) > 0 {
		return nil, errs[0]
	}
	return n, nil
}

// sweepStructures lists the (tree count, branch type) pairs SolveProblem1
// sweeps before annealing.
func sweepStructures(inst *iccad.Benchmark) []network.TreeSpec {
	d := inst.Stk.Dims
	seen := map[[2]int]bool{}
	var out []network.TreeSpec
	for _, div := range []int{6, 8, 12, 16, 24} {
		nt := max(d.NY/div, 1)
		for _, typ := range []network.BranchType{network.Branch2, network.Branch4, network.Branch8} {
			k := [2]int{nt, int(typ)}
			if d.NY < nt*2*typ.Leaves() || seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, network.UniformTreeSpec(d, nt, typ, 0.35, 0.65))
		}
	}
	return out
}

// replaySweep repeats the structure/orientation sweep (one 2RM probe per
// combination at the stage-1 pressure) and returns its duration.
func replaySweep(b *bench, inst *iccad.Benchmark, f *family) (float64, error) {
	top := b.tr.begin("replay.sweep", 0, 0)
	defer b.tr.end(top)
	t0 := time.Now()
	const pInit = 10e3 // core's default stage-1 pressure (SearchOptions.PInit)
	req := 0
	for _, spec := range sweepStructures(inst) {
		for _, o := range network.AllOrientations() {
			req++
			var n *network.Network
			var err error
			f.netBuild = append(f.netBuild, timed(b.tr, "network.build", top, req, func() { n, err = buildCandidate(inst, spec, o) }))
			if err != nil {
				continue
			}
			var m *rm2.Model
			f.build = append(f.build, timed(b.tr, "thermal.build.rm2", top, req, func() {
				m, err = rm2.New(inst.Stk, replicate(inst, n), 4, thermal.Central)
			}))
			if err != nil {
				return 0, fmt.Errorf("sweep rm2.New: %w", err)
			}
			f.cold = append(f.cold, timed(b.tr, "thermal.cold_probe.rm2", top, req, func() { _, err = m.Simulate(pInit) }))
			if err != nil {
				return 0, fmt.Errorf("sweep probe: %w", err)
			}
		}
	}
	return time.Since(t0).Seconds(), nil
}

// perturb applies one annealer move: each branch column moves by ±step
// with probability 1/2.
func perturb(rng *rand.Rand, spec network.TreeSpec, step int, inst *iccad.Benchmark) network.TreeSpec {
	s := spec.Clone()
	for t := 0; t < s.NumTrees; t++ {
		if rng.Intn(2) == 0 {
			s.B1[t] += step * (2*rng.Intn(2) - 1)
		}
		if rng.Intn(2) == 0 {
			s.B2[t] += step * (2*rng.Intn(2) - 1)
		}
	}
	s.Canonicalize(inst.Stk.Dims)
	return s
}

// candidateSpecs draws k seeded neighbours of spec.
func candidateSpecs(seed int64, spec network.TreeSpec, k int, inst *iccad.Benchmark) []network.TreeSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]network.TreeSpec, k)
	for i := range out {
		out[i] = perturb(rng, spec, replayStep, inst)
	}
	return out
}

// flowGeometry is the flow geometry of the stack's first channel layer,
// as the thermal models build it.
func flowGeometry(inst *iccad.Benchmark) flow.Geometry {
	li := inst.Stk.ChannelLayers()[0]
	return flow.Geometry{
		Pitch: inst.Stk.Pitch, ChannelWidth: inst.Stk.ChannelWidth,
		Coolant: inst.Stk.Coolant, ChannelHeight: inst.Stk.Layers[li].Thickness,
	}
}

// replayEval times one candidate's full evaluation: build, hash, flow
// solve, thermal model build, then Algorithm 2 with every probe timed.
func replayEval(b *bench, inst *iccad.Benchmark, f *family, spec network.TreeSpec, o network.Orientation, parent, req int) error {
	cand := b.tr.begin("replay.candidate."+f.name, parent, req)
	defer b.tr.end(cand)
	var n *network.Network
	var err error
	f.netBuild = append(f.netBuild, timed(b.tr, "network.build", cand, req, func() { n, err = buildCandidate(inst, spec, o) }))
	if err != nil {
		return nil // an illegal candidate is scored +Inf without simulation, as in the annealer
	}
	f.netHash = append(f.netHash, timed(b.tr, "network.hash", cand, req, func() { n.CanonicalHash() }))
	f.flowSolve = append(f.flowSolve, timed(b.tr, "flow.solve", cand, req, func() { _, err = flow.Solve(n, flowGeometry(inst), 1) }))
	if err != nil {
		return fmt.Errorf("flow.Solve: %w", err)
	}
	var sim core.SimFunc
	var stats func() thermal.FactorStats
	f.build = append(f.build, timed(b.tr, "thermal.build."+f.name, cand, req, func() {
		if f.name == "rm2" {
			var m *rm2.Model
			if m, err = rm2.New(inst.Stk, replicate(inst, n), 4, thermal.Central); err == nil {
				sim, stats = m.Simulate, m.FactorStats
			}
			return
		}
		var m *rm4.Model
		if m, err = rm4.New(inst.Stk, replicate(inst, n), thermal.Central); err == nil {
			sim, stats = m.Simulate, m.FactorStats
		}
	}))
	if err != nil {
		return fmt.Errorf("%s.New: %w", f.name, err)
	}
	evalID := b.tr.begin("core.eval."+f.name, cand, req)
	var inSim time.Duration
	first := true
	probe := func(p float64) (*thermal.Outcome, error) {
		name := "thermal.warm_probe." + f.name
		if first {
			name = "thermal.cold_probe." + f.name
		}
		id := b.tr.begin(name, evalID, req)
		t0 := time.Now()
		out, err := sim(p)
		d := time.Since(t0)
		b.tr.end(id)
		inSim += d
		f.probeNS += d.Nanoseconds()
		ms := float64(d.Microseconds()) / 1e3
		if first {
			f.cold = append(f.cold, ms)
		} else {
			f.warm = append(f.warm, ms)
		}
		first = false
		return out, err
	}
	memo, memoStats := core.MemoWithStats(probe)
	t0 := time.Now()
	r, err := core.EvaluatePumpMin(b.ctx, memo, inst.DeltaTStar, inst.TmaxStar, core.SearchOptions{})
	evalMS := msSince(t0)
	b.tr.end(evalID)
	if err != nil {
		return fmt.Errorf("EvaluatePumpMin: %w", err)
	}
	f.eval = append(f.eval, evalMS)
	f.searchSelf = append(f.searchSelf, evalMS-float64(inSim.Microseconds())/1e3)
	f.probes = append(f.probes, float64(r.Probes))
	ms := memoStats()
	f.memo.Hits += ms.Hits
	f.memo.Misses += ms.Misses
	f.add(stats())
	return nil
}

// naivePumpMin is the plain baseline: bisection on P_sys over
// [1 kPa, 1 MPa] for 25 steps, rebuilding flow and thermal models on
// every probe, keeping the lowest pressure that meets both constraints.
func naivePumpMin(ctx context.Context, inst *iccad.Benchmark, n *network.Network) (psys float64, feasible bool, err error) {
	lo, hi := 1e3, 1e6
	nets := replicate(inst, n)
	for i := 0; i < 25; i++ {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		mid := (lo + hi) / 2
		m, err := rm2.New(inst.Stk, nets, 4, thermal.Central)
		if err != nil {
			return 0, false, err
		}
		out, err := m.Simulate(mid)
		if err != nil {
			return 0, false, err
		}
		if out.Tmax <= inst.TmaxStar && out.DeltaT <= inst.DeltaTStar {
			psys, feasible, hi = mid, true, mid
		} else {
			lo = mid
		}
	}
	if !feasible {
		psys = hi
	}
	return psys, feasible, nil
}

// replaySA measures the per-layer metrics of sa-p1 and splits the
// solve's stage times across layers by the replayed shares.
func replaySA(b *bench, inst *iccad.Benchmark, sol *core.Solution, t0, t1 time.Time, bars []barrier) error {
	fixed := &family{name: "rm2"}
	sweepS, err := replaySweep(b, inst, fixed)
	if err != nil {
		return err
	}
	b.set("anneal.sweep_s", sweepS)
	b.set("anneal.stage1_s", math.Max(b.values["anneal.stage1_s"]-sweepS, 0))

	fams := []*family{{name: "rm2"}, {name: "rm4"}}
	counts := []int{replayRM2, replayRM4}
	for i, f := range fams {
		top := b.tr.begin("replay."+f.name, 0, 0)
		specs := candidateSpecs(b.seed+int64(i)*7919, sol.Spec, counts[i], inst)
		for j, spec := range specs {
			if err := replayEval(b, inst, f, spec, sol.Orient, top, 1000*(i+1)+j); err != nil {
				b.tr.end(top)
				return err
			}
		}
		b.tr.end(top)
	}
	rm2f, rm4f := fams[0], fams[1]

	naiveTop := b.tr.begin("replay.naive", 0, 0)
	var naive []float64
	for j, spec := range candidateSpecs(b.seed, sol.Spec, replayNaive, inst) {
		n, err := buildCandidate(inst, spec, sol.Orient)
		if err != nil {
			continue
		}
		var nerr error
		naive = append(naive, timed(b.tr, "core.naive_eval.rm2", naiveTop, 3000+j, func() {
			_, _, nerr = naivePumpMin(b.ctx, inst, n)
		}))
		if nerr != nil {
			b.tr.end(naiveTop)
			return fmt.Errorf("naive baseline: %w", nerr)
		}
	}
	b.tr.end(naiveTop)

	all := []*family{fixed, rm2f, rm4f}
	var netBuild, netHash, flowSolve, probes, searchSelf []float64
	var memo core.MemoStats
	var fs family
	var probeNS int64
	for _, f := range all {
		netBuild = append(netBuild, f.netBuild...)
		netHash = append(netHash, f.netHash...)
		flowSolve = append(flowSolve, f.flowSolve...)
		probes = append(probes, f.probes...)
		searchSelf = append(searchSelf, f.searchSelf...)
		memo.Hits += f.memo.Hits
		memo.Misses += f.memo.Misses
		fs.add(f.fs)
		probeNS += f.probeNS
	}
	b.set("core.eval_ms.rm2", mean(rm2f.eval))
	b.set("core.eval_ms.rm4", mean(rm4f.eval))
	b.set("core.naive_eval_ms.rm2", mean(naive))
	b.set("core.probes_per_eval", mean(probes))
	b.set("core.search_self_ms", mean(searchSelf))
	b.set("core.memo_hit_rate", memo.HitRate())
	b.set("network.build_ms", mean(netBuild))
	b.set("network.hash_ms", mean(netHash))
	b.set("flow.solve_ms", mean(flowSolve))
	b.set("thermal.build_ms.rm2", mean(append(append([]float64(nil), fixed.build...), rm2f.build...)))
	b.set("thermal.build_ms.rm4", mean(rm4f.build))
	b.set("thermal.cold_probe_ms.rm2", mean(append(append([]float64(nil), fixed.cold...), rm2f.cold...)))
	b.set("thermal.cold_probe_ms.rm4", mean(rm4f.cold))
	b.set("thermal.warm_probe_ms.rm2", mean(rm2f.warm))
	b.set("thermal.warm_probe_ms.rm4", mean(rm4f.warm))
	setFactorStats(b, fs.fs, probeNS)
	b.note("replay: %d sweep probes, %d rm2 and %d rm4 evaluations, %d naive evaluations",
		len(fixed.cold), len(rm2f.eval), len(rm4f.eval), len(naive))

	// Split the solve's measured stage times by the replayed shares:
	// sweep and stage 1 score one 2RM probe per candidate, stages 2–3
	// run Algorithm 2 on 2RM, stage 4 and the final evaluation on 4RM.
	ends := stageEnds(bars)
	stage := func(s int) float64 {
		end, ok := ends[s]
		if !ok {
			return 0
		}
		prev := t0
		if s > 0 {
			prev = ends[s-1]
		}
		return end.Sub(prev).Seconds()
	}
	fixedS := stage(0)
	rm2S := stage(1) + stage(2)
	rm4S := stage(3) + t1.Sub(ends[3]).Seconds()
	fb, fc := fixed.fixedShares()
	b2, c2, w2, s2 := rm2f.shares()
	b4, c4, w4, s4 := rm4f.shares()
	b.set("anneal.split_s.build", fixedS*fb+rm2S*b2+rm4S*b4)
	b.set("anneal.split_s.cold_probe", fixedS*fc+rm2S*c2+rm4S*c4)
	b.set("anneal.split_s.warm_probe", rm2S*w2+rm4S*w4)
	b.set("anneal.split_s.search", rm2S*s2+rm4S*s4)
	return nil
}

// setFactorStats reports the thermal/solver counters of a set of
// factored systems; probeNS is the wall time spent in their probes.
func setFactorStats(b *bench, st thermal.FactorStats, probeNS int64) {
	b.set("thermal.assembly_share", ratio(float64(st.AssemblyNS), float64(probeNS)))
	b.set("thermal.iters_per_probe", ratio(float64(st.SolveIters), float64(st.Probes)))
	b.set("thermal.warm_start_rate", st.WarmStartRate())
	b.set("thermal.precond_builds", float64(st.PrecondBuilds))
	b.set("thermal.precond_updates", float64(st.PrecondUpdates))
	b.set("thermal.escalations", float64(st.RetryRebuild+st.RetryGMRES+st.RetryDense))
	b.set("thermal.degraded", float64(st.Degraded))
	b.set("solver.mg_vcycles", float64(st.MG.VCycles))
}
