package main

// In-process microbenchmarks for the simulator hot paths, written as a
// machine-readable BENCH_<date>.json so perf regressions (and wins) can
// be diffed across commits without parsing `go test -bench` text output.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lcn3d/internal/cluster"
	"lcn3d/internal/core"
	"lcn3d/internal/grid"
	"lcn3d/internal/iccad"
	"lcn3d/internal/network"
	"lcn3d/internal/rm2"
	"lcn3d/internal/rm4"
	"lcn3d/internal/scenario"
	"lcn3d/internal/service"
	"lcn3d/internal/store"
	"lcn3d/internal/thermal"
)

// benchEntry is one timed benchmark in the JSON report.
type benchEntry struct {
	Name            string  `json:"name"`
	Ops             int     `json:"ops"`
	NsPerOp         int64   `json:"ns_per_op"`
	SolveItersPerOp float64 `json:"solve_iters_per_op"`
	WarmStartRate   float64 `json:"warm_start_rate"`
	PrecondBuilds   int     `json:"precond_builds"`
	// PrecondUpdates counts cheap per-scale multigrid refreshes — the
	// probes that used to force a full ILU rebuild (the precond churn).
	PrecondUpdates  int   `json:"precond_updates,omitempty"`
	AssemblyNsPerOp int64 `json:"assembly_ns_per_op"`
	// Multigrid carries the per-level V-cycle counters when the entry's
	// solves routed through the two-level preconditioner.
	Multigrid *mgCounters `json:"multigrid,omitempty"`
}

// mgCounters is the JSON shape of solver.MGStats: per-level multigrid
// work, recorded so iteration-count wins stay auditable against the
// per-cycle cost that buys them.
type mgCounters struct {
	VCycles        int64 `json:"v_cycles"`
	SmootherSweeps int64 `json:"smoother_sweeps"`
	SmootherBuilds int64 `json:"smoother_builds"`
	CoarseSolves   int64 `json:"coarse_solves"`
	Updates        int64 `json:"updates"`
}

// benchReport is the BENCH_<date>.json schema.
type benchReport struct {
	Date      string         `json:"date"`
	Commit    string         `json:"commit"`
	Scale     int            `json:"scale"`
	Results   []benchEntry   `json:"benchmarks"`
	Service   serviceBench   `json:"service"`
	Optimize  optimizeBench  `json:"optimize"`
	Transient transientBench `json:"transient"`
}

// transientBench times one implicit-Euler trace with a DVFS step and a
// pump ramp (three (dt, s) segments' worth of events): the headline is
// steps/s and the factorization count, which must stay at one per
// segment for the amortization to hold.
type transientBench struct {
	Steps          int     `json:"steps"`
	Segments       int     `json:"segments"`
	Factorizations int     `json:"factorizations"`
	StepsPerSec    float64 `json:"steps_per_sec"`
	NsPerStep      int64   `json:"ns_per_step"`
	SolveIters     int     `json:"solve_iters"`
}

// optimizeBench compares one serial SolveProblem1 run against the same
// problem with multiple exchange-coupled chains, recording wall-clock
// and the shared topology-cache counters of the multi-chain run.
type optimizeBench struct {
	SerialNs     int64   `json:"serial_ns"`
	MultiChainNs int64   `json:"multi_chain_ns"`
	Chains       int     `json:"chains"`
	Speedup      float64 `json:"speedup"`
	SerialEvals  int     `json:"serial_evals"`
	MultiEvals   int     `json:"multi_evals"`
	CacheHits    int64   `json:"topo_cache_hits"`
	CacheMisses  int64   `json:"topo_cache_misses"`
	CacheHitRate float64 `json:"topo_cache_hit_rate"`
	SerialWpump  float64 `json:"serial_wpump"`
	MultiWpump   float64 `json:"multi_wpump"`
}

// serviceBench records a small in-process exercise of the serving
// layer (internal/service): duplicate concurrent evaluations followed
// by a repeat, a persistent-store restart, and a 2-node forwarding
// exchange, so the report carries the cache, dedup, store, and cluster
// counters this commit achieves alongside the raw simulator timings.
type serviceBench struct {
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	DedupHits   int64 `json:"dedup_hits"`
	Evaluations int64 `json:"evaluations"`

	// Store counters from a cold restart against the same directory:
	// the evaluation above is flushed, a fresh service reopens the
	// store, and the repeat must be a disk hit with zero solver runs.
	StoreHits    int64 `json:"store_hits"`
	StoreMisses  int64 `json:"store_misses"`
	RestartEvals int64 `json:"restart_evaluations"`
	StoreRecords int   `json:"store_records"`
	StoreFlushes int64 `json:"store_flushes"`

	// Cluster counters from a 2-node fleet answering the same request
	// on both nodes: one forward (or store fetch) and one compute.
	Forwards     int64 `json:"forwards"`
	StoreFetches int64 `json:"store_fetches"`
	PeerHits     int64 `json:"peer_hits"`
	FleetEvals   int64 `json:"fleet_evaluations"`
}

// finiteOrZero maps the +Inf of an infeasible evaluation to 0 so the
// report stays valid JSON.
func finiteOrZero(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// gitCommit resolves the current commit hash, "unknown" outside a git
// checkout (e.g. a copied tarball).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// serviceCounters runs duplicate concurrent evaluations plus one repeat
// through an in-process service and returns its counters.
func serviceCounters(scale int) (serviceBench, error) {
	svc := service.New(service.Config{Scale: scale})
	req := service.EvaluateRequest{
		CaseRef:   service.CaseRef{Case: 1},
		ModelSpec: service.ModelSpec{Model: "2rm", CoarseM: 4},
		Network:   service.NetworkSpec{Generator: "straight"},
	}
	const dup = 4
	errs := make([]error, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Evaluate(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return serviceBench{}, err
		}
	}
	if _, err := svc.Evaluate(context.Background(), req); err != nil {
		return serviceBench{}, err
	}
	svc.Drain()
	m := svc.Metrics()
	sb := serviceBench{
		Requests:    m.Requests,
		CacheHits:   m.CacheHits,
		CacheMisses: m.CacheMisses,
		DedupHits:   m.DedupHits,
		Evaluations: m.Evaluations,
	}
	if err := storeRestartCounters(scale, req, &sb); err != nil {
		return serviceBench{}, fmt.Errorf("store restart: %w", err)
	}
	if err := fleetCounters(scale, req, &sb); err != nil {
		return serviceBench{}, fmt.Errorf("fleet: %w", err)
	}
	return sb, nil
}

// storeRestartCounters evaluates once into a persistent store, drains
// (flushing the write batch), then cold-restarts the service on the
// same directory and repeats the request, recording the disk-hit
// counters the restart achieves.
func storeRestartCounters(scale int, req service.EvaluateRequest, sb *serviceBench) error {
	dir, err := os.MkdirTemp("", "lcn-bench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	svc := service.New(service.Config{Scale: scale, Store: st})
	if _, err := svc.Evaluate(context.Background(), req); err != nil {
		st.Close()
		return err
	}
	svc.Drain()
	if err := st.Close(); err != nil {
		return err
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st2.Close()
	svc2 := service.New(service.Config{Scale: scale, Store: st2})
	if _, err := svc2.Evaluate(context.Background(), req); err != nil {
		return err
	}
	m := svc2.Metrics()
	sb.StoreHits = m.StoreHits
	sb.StoreMisses = m.StoreMisses
	sb.RestartEvals = m.Evaluations // 0 when the disk hit worked
	if m.Store != nil {
		sb.StoreRecords = m.Store.Records
		sb.StoreFlushes = m.Store.Flushes
	}
	return nil
}

// fleetCounters answers the same request on both nodes of a 2-node
// fleet: the owner computes, the other reaches it through the peer
// tier, so the report carries live forward/fetch counters.
func fleetCounters(scale int, req service.EvaluateRequest, sb *serviceBench) error {
	ls := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer l.Close()
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	svcs := make([]*service.Service, 2)
	cls := make([]*cluster.Cluster, 2)
	for i := range svcs {
		cl, err := cluster.New(cluster.Options{Self: addrs[i], Peers: addrs})
		if err != nil {
			return err
		}
		defer cl.Stop()
		cls[i] = cl
		svcs[i] = service.New(service.Config{Scale: scale, Cluster: cl})
		srv := &http.Server{Handler: svcs[i].Handler()}
		go srv.Serve(ls[i])
		defer srv.Close()
	}
	for _, svc := range svcs {
		if _, err := svc.Evaluate(context.Background(), req); err != nil {
			return err
		}
	}
	for i, svc := range svcs {
		m := svc.Metrics()
		sb.PeerHits += m.PeerHits
		sb.FleetEvals += m.Evaluations
		st := cls[i].Stats()
		sb.Forwards += st.Forwards
		sb.StoreFetches += st.StoreFetches
	}
	return nil
}

// optimizeComparison runs the same small Problem 1 optimization twice —
// one chain, then several exchange-coupled chains — and records the
// wall-clock ratio and the multi-chain run's shared-cache hit rate. It
// runs at a fixed 21x21 scale regardless of the probe benchmarks' scale
// so the report stays cheap to regenerate.
func optimizeComparison() (optimizeBench, error) {
	const chains = 4
	bench, err := iccad.LoadScaled(1, grid.Dims{NX: 21, NY: 21})
	if err != nil {
		return optimizeBench{}, err
	}
	run := func(k int) (*core.Solution, int64, error) {
		opt := core.Options{
			Seed: 1, Chains: k, NumTrees: 2, BranchType: network.Branch2,
			Orientations: []network.Orientation{{Rotations: 0}, {Rotations: 2}},
			Stages: []core.Stage{
				{Iterations: 8, Step: 2, FixedPsys: true},
				{Iterations: 6, Step: 2},
			},
		}
		t0 := time.Now()
		sol, err := bench.SolveProblem1(opt)
		return sol, time.Since(t0).Nanoseconds(), err
	}
	serial, serialNs, err := run(1)
	if err != nil {
		return optimizeBench{}, err
	}
	multi, multiNs, err := run(chains)
	if err != nil {
		return optimizeBench{}, err
	}
	ob := optimizeBench{
		SerialNs: serialNs, MultiChainNs: multiNs, Chains: chains,
		SerialEvals: serial.Evals, MultiEvals: multi.Evals,
		CacheHits: multi.Cache.Hits, CacheMisses: multi.Cache.Misses,
		CacheHitRate: multi.Cache.HitRate(),
		SerialWpump:  finiteOrZero(serial.Eval.Wpump),
		MultiWpump:   finiteOrZero(multi.Eval.Wpump),
	}
	if multiNs > 0 {
		// Per-evaluation speedup: the multi-chain run does more total work
		// (chains x iterations), so raw wall-clock alone would misread.
		ob.Speedup = (float64(serialNs) / float64(serial.Evals)) /
			(float64(multiNs) / float64(multi.Evals))
	}
	return ob, nil
}

// transientTiming runs one 200-step transient trace on a fresh 2RM
// model: a DVFS power step at t=0.1 s and a pump-failure window at
// t=[0.2, 0.3) s, so the trace crosses three pump-pressure segments and
// the factorization count proves (or disproves) one-per-segment reuse.
func transientTiming(bench *iccad.Benchmark, nets []*network.Network) (transientBench, error) {
	mod, err := rm2.New(bench.Stk, nets, 4, thermal.Central)
	if err != nil {
		return transientBench{}, err
	}
	spec := &scenario.Spec{
		Dt: 2e-3, Steps: 200, Psys: 10e3,
		Power: []scenario.PowerEvent{{Kind: "dvfs", Layer: -1, T0: 0.1, Factor: 2}},
		Pump:  []scenario.PumpEvent{{Kind: "fail", T0: 0.2, T1: 0.3, Frac: 0.5}},
	}
	t0 := time.Now()
	res, err := scenario.Run(context.Background(), mod, spec, nil)
	if err != nil {
		return transientBench{}, err
	}
	elapsed := time.Since(t0)
	tb := transientBench{
		Steps:          res.Stats.Steps,
		Segments:       res.Stats.Segments,
		Factorizations: res.Stats.PrecondBuilds,
		NsPerStep:      elapsed.Nanoseconds() / int64(max(res.Stats.Steps, 1)),
		SolveIters:     res.Stats.SolveIters,
	}
	if s := elapsed.Seconds(); s > 0 {
		tb.StepsPerSec = float64(res.Stats.Steps) / s
	}
	return tb, nil
}

// benchProbes mirrors the probe cycle of the root bench_test.go warm
// benches: repeated probes on one model at nearby-but-distinct pressures.
var benchProbes = []float64{8e3, 10e3, 12e3, 16e3, 9e3, 20e3}

// timeOps runs op() repeatedly for at least minDur (and at least minOps
// times) and returns the op count and mean ns/op.
func timeOps(minDur time.Duration, minOps int, op func(i int) error) (int, int64, error) {
	t0 := time.Now()
	n := 0
	for n < minOps || time.Since(t0) < minDur {
		if err := op(n); err != nil {
			return n, 0, err
		}
		n++
	}
	return n, time.Since(t0).Nanoseconds() / int64(n), nil
}

func entryFromStats(name string, ops int, nsPerOp int64, st thermal.FactorStats) benchEntry {
	e := benchEntry{Name: name, Ops: ops, NsPerOp: nsPerOp,
		WarmStartRate: st.WarmStartRate(), PrecondBuilds: st.PrecondBuilds,
		PrecondUpdates: st.PrecondUpdates}
	if st.Probes > 0 {
		e.SolveItersPerOp = float64(st.SolveIters) / float64(ops)
		e.AssemblyNsPerOp = st.AssemblyNS / int64(ops)
	}
	if st.MG.VCycles > 0 {
		e.Multigrid = &mgCounters{
			VCycles:        st.MG.VCycles,
			SmootherSweeps: st.MG.SmootherSweeps,
			SmootherBuilds: st.MG.SmootherBuilds,
			CoarseSolves:   st.MG.CoarseSolves,
			Updates:        st.MG.Updates,
		}
	}
	return e
}

// accumulate folds a fresh model's counters into a cross-model total
// (the cold and evaluation benches build a new Factored per op).
func accumulate(dst *thermal.FactorStats, st thermal.FactorStats) {
	dst.Probes += st.Probes
	dst.WarmStarts += st.WarmStarts
	dst.SolveIters += st.SolveIters
	dst.PrecondBuilds += st.PrecondBuilds
	dst.PrecondUpdates += st.PrecondUpdates
	dst.AssemblyNS += st.AssemblyNS
	dst.MG.Add(st.MG)
}

// maxPrecondBuildsPerOp is the churn regression bound on the
// NetworkEvaluation bench: one evaluation runs a few dozen pressure
// probes, and the static/flow split must amortize the preconditioner
// across them the way warm starts already are. The historical churn bug
// rebuilt ~7x per op; the fixed path measures ~1 build per op (plus
// cheap multigrid updates), so 3 leaves headroom without letting the
// regression back in.
const maxPrecondBuildsPerOp = 3.0

// itersRegressionFactor fails a -baseline comparison when
// NetworkEvaluation solve_iters_per_op grows past baseline times this
// (the CI perf-smoke threshold: >20% regression).
const itersRegressionFactor = 1.2

// benchFileName names a report file. The short commit joins the date so
// two same-day runs from different commits cannot overwrite each other;
// outside a git checkout (commit "unknown") the name is the plain date.
func benchFileName(report benchReport) string {
	name := "BENCH_" + report.Date
	if c := report.Commit; c != "" && c != "unknown" {
		if len(c) > 7 {
			c = c[:7]
		}
		name += "-" + c
	}
	return name + ".json"
}

// newestBenchFile resolves a directory baseline to its most recently
// written BENCH_*.json (commit-suffixed names do not sort by recency,
// so modification time decides).
func newestBenchFile(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	newest, best := "", time.Time{}
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			continue
		}
		if newest == "" || fi.ModTime().After(best) {
			newest, best = m, fi.ModTime()
		}
	}
	if newest == "" {
		return "", fmt.Errorf("no BENCH_*.json in %s", dir)
	}
	return newest, nil
}

// checkBaseline compares the fresh report against a committed baseline
// JSON and errors on a NetworkEvaluation iteration-count regression.
// A directory path selects its newest BENCH_*.json.
func checkBaseline(report benchReport, path string, logf func(string, ...any)) error {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		resolved, err := newestBenchFile(path)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		path = resolved
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	find := func(r benchReport, name string) *benchEntry {
		for i := range r.Results {
			if r.Results[i].Name == name {
				return &r.Results[i]
			}
		}
		return nil
	}
	const name = "NetworkEvaluation"
	want := find(base, name)
	got := find(report, name)
	if want == nil || got == nil {
		return fmt.Errorf("baseline: %s missing from %s", name,
			map[bool]string{true: path, false: "fresh report"}[got != nil])
	}
	if base.Scale != report.Scale {
		return fmt.Errorf("baseline: scale %d does not match run scale %d", base.Scale, report.Scale)
	}
	if logf != nil {
		logf("baseline %s: %s %.1f iters/op vs %.1f committed",
			path, name, got.SolveItersPerOp, want.SolveItersPerOp)
	}
	if want.SolveItersPerOp > 0 && got.SolveItersPerOp > itersRegressionFactor*want.SolveItersPerOp {
		return fmt.Errorf("perf regression: %s solve_iters_per_op %.1f > %.2fx baseline %.1f",
			name, got.SolveItersPerOp, itersRegressionFactor, want.SolveItersPerOp)
	}
	return nil
}

// runMicrobench times the RM2/RM4/NetworkEvaluation hot paths at the
// given scale and writes BENCH_<date>.json into dir (default "."). A
// non-empty baseline names a committed report to regression-check the
// fresh numbers against (see checkBaseline).
func runMicrobench(scale int, dir, baseline string, logf func(string, ...any)) error {
	bench, err := iccad.LoadScaled(1, grid.Dims{NX: scale, NY: scale})
	if err != nil {
		return err
	}
	n := network.Straight(bench.Stk.Dims, grid.SideWest, 1)
	nets := make([]*network.Network, len(bench.Stk.ChannelLayers()))
	for i := range nets {
		nets[i] = n
	}
	const minDur = 2 * time.Second
	report := benchReport{
		Date:   time.Now().Format("2006-01-02"),
		Commit: gitCommit(),
		Scale:  scale,
	}
	add := func(name string, ops int, nsPerOp int64, st thermal.FactorStats) {
		report.Results = append(report.Results, entryFromStats(name, ops, nsPerOp, st))
		if logf != nil {
			logf("%-24s %10d ns/op  %6.1f solve iters/op  (%d ops)",
				name, nsPerOp, float64(st.SolveIters)/float64(max(ops, 1)), ops)
		}
	}

	// Warm: repeated probes on one shared model (the SA access pattern).
	m4, err := rm4.New(bench.Stk, nets, thermal.Central)
	if err != nil {
		return err
	}
	ops, ns, err := timeOps(minDur, len(benchProbes), func(i int) error {
		_, err := m4.Simulate(benchProbes[i%len(benchProbes)])
		return err
	})
	if err != nil {
		return fmt.Errorf("RM4Simulate: %w", err)
	}
	add("RM4Simulate", ops, ns, m4.FactorStats())

	// Cold: a fresh model per probe (the unamortized baseline).
	var coldStats thermal.FactorStats
	ops, ns, err = timeOps(minDur, 2, func(i int) error {
		m, err := rm4.New(bench.Stk, nets, thermal.Central)
		if err != nil {
			return err
		}
		if _, err := m.Simulate(benchProbes[i%len(benchProbes)]); err != nil {
			return err
		}
		accumulate(&coldStats, m.FactorStats())
		return nil
	})
	if err != nil {
		return fmt.Errorf("RM4SimulateCold: %w", err)
	}
	add("RM4SimulateCold", ops, ns, coldStats)

	m2, err := rm2.New(bench.Stk, nets, 4, thermal.Central)
	if err != nil {
		return err
	}
	ops, ns, err = timeOps(minDur, len(benchProbes), func(i int) error {
		_, err := m2.Simulate(benchProbes[i%len(benchProbes)])
		return err
	})
	if err != nil {
		return fmt.Errorf("RM2Simulate: %w", err)
	}
	add("RM2Simulate/m=4", ops, ns, m2.FactorStats())

	// Algorithm 2 end to end: fresh network, a few dozen probes inside.
	// Timed once per preconditioning strategy: the default entry is the
	// auto policy the evaluation stack ships with, and the ilu0/multigrid
	// variants pin both sides of the comparison in the same report.
	networkEval := func() (int, int64, thermal.FactorStats, error) {
		var stats thermal.FactorStats
		ops, ns, err := timeOps(minDur, 2, func(i int) error {
			mod, err := rm2.New(bench.Stk, nets, 4, thermal.Central)
			if err != nil {
				return err
			}
			if _, err := core.EvaluatePumpMin(context.Background(), core.Memo(mod.Simulate),
				bench.DeltaTStar, bench.TmaxStar, core.SearchOptions{}); err != nil {
				return err
			}
			accumulate(&stats, mod.FactorStats())
			return nil
		})
		return ops, ns, stats, err
	}
	ops, ns, evalStats, err := networkEval()
	if err != nil {
		return fmt.Errorf("NetworkEvaluation: %w", err)
	}
	add("NetworkEvaluation", ops, ns, evalStats)
	if perOp := float64(evalStats.PrecondBuilds) / float64(max(ops, 1)); perOp > maxPrecondBuildsPerOp {
		return fmt.Errorf("precond churn regression: %.1f precond_builds/op on NetworkEvaluation (bound %.1f) — rebuilds are not amortized across pressure probes",
			perOp, maxPrecondBuildsPerOp)
	}
	for _, strat := range []thermal.PrecondStrategy{thermal.PrecondILU, thermal.PrecondMG} {
		thermal.SetPrecondStrategy(strat)
		ops, ns, st, err := networkEval()
		thermal.SetPrecondStrategy(thermal.PrecondAuto)
		if err != nil {
			return fmt.Errorf("NetworkEvaluation/%v: %w", strat, err)
		}
		add(fmt.Sprintf("NetworkEvaluation/%v", strat), ops, ns, st)
	}

	report.Transient, err = transientTiming(bench, nets)
	if err != nil {
		return fmt.Errorf("transient timing: %w", err)
	}
	if logf != nil {
		logf("transient: %d steps in %d segments, %d factorizations, %.0f steps/s",
			report.Transient.Steps, report.Transient.Segments,
			report.Transient.Factorizations, report.Transient.StepsPerSec)
	}

	report.Optimize, err = optimizeComparison()
	if err != nil {
		return fmt.Errorf("optimize comparison: %w", err)
	}
	if logf != nil {
		logf("optimize: serial %d ms, %d chains %d ms (%.2fx), cache %.0f%% hit",
			report.Optimize.SerialNs/1e6, report.Optimize.Chains,
			report.Optimize.MultiChainNs/1e6, report.Optimize.Speedup,
			100*report.Optimize.CacheHitRate)
	}

	report.Service, err = serviceCounters(scale)
	if err != nil {
		return fmt.Errorf("service counters: %w", err)
	}
	if logf != nil {
		logf("service: requests=%d cache_hits=%d dedup_hits=%d evaluations=%d",
			report.Service.Requests, report.Service.CacheHits,
			report.Service.DedupHits, report.Service.Evaluations)
	}

	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, benchFileName(report))
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if baseline != "" {
		return checkBaseline(report, baseline, logf)
	}
	return nil
}
