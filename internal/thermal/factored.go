package thermal

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lcn3d/internal/faults"
	"lcn3d/internal/solver"
	"lcn3d/internal/sparse"
)

// Factored is a thermal system compiled for repeated solves of the same
// network at many flow scales: A(s) = S + s·F, b(s) = b_S + s·b_F, where
// S holds the pressure-independent conduction block and F the convection
// block recorded at a reference flow (the rm2/rm4 models record at
// P_sys = 1 Pa, so s is the system pressure in Pa). Per probe it rewrites
// the matrix values in place (no pattern work, no allocation), warm-starts
// the iterative solve from the minimal-residual combination of the cached
// fields of the nearest previously solved scales (see warmStart), and
// reuses the preconditioner across nearby scales, refreshing it when
// iteration counts regress.
//
// SolveAt is safe for concurrent use; solves on one Factored serialize.
type Factored struct {
	mu        sync.Mutex
	pair      *sparse.AffinePair
	staticRHS []float64
	flowRHS   []float64
	rhs       []float64 // scratch, rewritten per probe
	scheme    Scheme

	// agg/nAgg is the multigrid aggregation, nil when the assembler
	// provided no coarse map.
	agg  []int
	nAgg int

	warm []warmField // most recent last

	// work is the scratch of the warm-start projection and the BiCGSTAB
	// rungs, at most (maxWarmFields+1)·N values, allocated on first use.
	work solver.Workspace

	pre      solver.Preconditioner
	preScale float64 // scale the preconditioner was factorized at
	preIters int     // iterations right after the last precond build; -1 = unset

	// mg is the two-level multigrid hierarchy, built once per Factored on
	// first eligible use and refreshed per scale in O(nnz_coarse). An
	// atomic pointer so Stats can snapshot the per-level counters without
	// taking f.mu. usingMG marks whether f.pre currently routes through
	// it; mgDisabled latches after a multigrid failure so one MG-hostile
	// system does not ping-pong between rungs on every probe.
	mg         atomic.Pointer[solver.TwoLevel]
	usingMG    bool
	mgDisabled bool

	tol float64 // solve tolerance; defaultSolveTol when zero

	// Stats counters are atomics so Stats() can snapshot them without
	// taking f.mu: a metrics scrape must not block behind (or race with)
	// a solve that is in flight.
	ctrProbes         atomic.Int64
	ctrWarmStarts     atomic.Int64
	ctrPrecondBuilds  atomic.Int64
	ctrPrecondUpdates atomic.Int64
	ctrSolveIters     atomic.Int64
	ctrAssemblyNS     atomic.Int64

	// Escalation-ladder counters: probes that reached each fallback rung
	// and probes whose result came from a degraded rung (see solver.Rung).
	ctrRetryRebuild atomic.Int64
	ctrRetryGMRES   atomic.Int64
	ctrRetryDense   atomic.Int64
	ctrDegraded     atomic.Int64

	// ctrMGLatchOffs counts multigrid latch-offs: V-cycle failures (or a
	// hierarchy that cannot be built) that permanently routed this
	// Factored back to the classic ILU(0) path.
	ctrMGLatchOffs atomic.Int64
}

// defaultSolveTol is the relative residual the steady solves converge to.
const defaultSolveTol = 1e-10

// SetTol overrides the linear-solve tolerance (0 restores the default).
// Tightening it makes independently seeded solves agree more closely, at
// the cost of extra iterations per probe.
func (f *Factored) SetTol(tol float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tol = tol
}

// warmField is one cached solution used to seed later solves.
type warmField struct {
	scale float64
	t     []float64
}

// maxWarmFields bounds the solution cache, and with it how many fields
// one initial guess combines (see warmStart). The fields T(s) of one
// network form a smooth, low-dimensional family, so the last few probes
// of a pressure search predict the next one to far below the solve
// tolerance. Each field costs N cached values, an SpMV and a QR column;
// on scale-51 4RM Algorithm 2 evaluations a 16-field cache saved only
// 3–6 % of the iterations of this one, for 8·N more values per model.
const maxWarmFields = 8

// projDropTol drops a projection column whose part orthogonal to the
// columns before it is below this fraction of its norm: it adds no
// direction the others lack, only rounding noise and a large coefficient.
const projDropTol = 1e-10

// precondRegressionFactor triggers a preconditioner rebuild when a solve
// needs more than this multiple of the post-build iteration count (plus a
// small absolute slack for noise on tiny systems).
const (
	precondRegressionFactor = 2
	precondRegressionSlack  = 16
)

// precondMaxDrift is the largest |log(s/s_build)| at which the cached
// preconditioner is still used. The refinement phases of the pressure
// searches (bisection, golden section) probe within a factor ~1.5 of the
// previous probe and reuse it; the decade-spanning doubling sweeps
// (e.g. MinPressureForTmax climbing from P_min) refactorize, because an
// ILU built where convection dominates is nearly useless where
// conduction dominates — iteration counts explode long before the
// regression heuristic can react.
const precondMaxDrift = 0.5

// PrecondStrategy selects how factored systems precondition the primary
// BiCGSTAB rung.
type PrecondStrategy int32

// Preconditioning strategies.
const (
	// PrecondAuto (the default) uses two-level multigrid when the model
	// supplied a coarse map small enough for a direct coarse solve and
	// the system is large enough to benefit, ILU(0) otherwise.
	PrecondAuto PrecondStrategy = iota
	// PrecondILU forces the ILU(0) path (benchmark/ablation baseline).
	PrecondILU
	// PrecondMG forces multigrid whenever a coarse map within
	// solver.DenseCoarseMax exists, ignoring the other size thresholds
	// (used by equivalence tests on small fixtures).
	PrecondMG
)

func (s PrecondStrategy) String() string {
	switch s {
	case PrecondILU:
		return "ilu0"
	case PrecondMG:
		return "multigrid"
	}
	return "auto"
}

// precondStrategy is process-global so benches and ablations can flip
// the whole evaluation stack without threading options through every
// model constructor.
var precondStrategy atomic.Int32

// SetPrecondStrategy switches the preconditioning strategy for
// subsequently created probes (existing multigrid hierarchies persist,
// but PrecondILU stops routing solves through them).
func SetPrecondStrategy(s PrecondStrategy) { precondStrategy.Store(int32(s)) }

// GetPrecondStrategy returns the active strategy.
func GetPrecondStrategy() PrecondStrategy { return PrecondStrategy(precondStrategy.Load()) }

// Multigrid eligibility under PrecondAuto: below mgMinSize an
// ILU(0)-BiCGSTAB solve is already a few hundred microseconds and the
// V-cycle overhead is not worth it; below mgMinCoarse (or above half the
// fine size) the coarse grid cannot represent the smooth error modes.
// Under every strategy the coarse system must also be small enough for
// a direct dense LU (nAgg within solver.DenseCoarseMax), so a V-cycle
// costs essentially its smoothing steps. Larger coarse maps — the 4RM
// systems at the bench scales — would need an iterative coarse solve,
// and plain ILU(0) with the stencil kernels beats that on wall-clock.
const (
	mgMinSize   = 256
	mgMinCoarse = 8
)

// mgMaxIter caps the BiCGSTAB iteration budget while multigrid is
// active: a BiCGSTAB iteration applies the preconditioner twice, and
// each V(2,2) cycle runs four ILU(0) smoothing steps, four fine SpMVs and
// a coarse solve, so a solve that has not converged in a few hundred
// iterations should escalate to the ILU rung instead of burning the 40·N
// budget.
const mgMaxIter = 500

// FactorStats accumulates amortization counters across the lifetime of a
// factored system.
type FactorStats struct {
	Probes        int // SolveAt calls
	WarmStarts    int // solves seeded from a cached temperature field
	PrecondBuilds int // preconditioner constructions (pattern + factorization)
	// PrecondUpdates counts cheap per-scale refreshes of an existing
	// multigrid hierarchy (O(nnz_coarse) value rewrite + coarse refactor)
	// — the probes that previously forced a full ILU rebuild.
	PrecondUpdates int
	SolveIters     int   // total linear-solver iterations
	AssemblyNS     int64 // cumulative nanoseconds spent rewriting values

	// MG holds the per-level multigrid counters (zero-valued while the
	// multigrid path is off).
	MG solver.MGStats

	// Escalation-ladder counters (see solver.Rung): probes that climbed
	// to the rebuilt-preconditioner retry, the GMRES rung, and the dense
	// fallback, plus probes whose result came from a degraded rung.
	RetryRebuild int
	RetryGMRES   int
	RetryDense   int
	Degraded     int

	// MGLatchOffs counts multigrid latch-offs: failures that permanently
	// routed this system back to the classic ILU(0) path (see mgDisabled).
	MGLatchOffs int
}

// WarmStartRate reports the fraction of probes that were warm-started.
func (s FactorStats) WarmStartRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.WarmStarts) / float64(s.Probes)
}

// ProbeStats describes what one SolveAt call did.
type ProbeStats struct {
	AssemblyNS    int64 // time spent rewriting matrix/RHS values
	WarmStarted   bool  // initial guess came from cached fields
	PrecondBuilds int   // preconditioner builds this probe triggered
	// StartResidual is the relative residual ‖b − A·T₀‖/‖b‖ of the
	// initial guess T₀, as the primary BiCGSTAB rung computes it.
	StartResidual float64
	// Rung is the highest escalation-ladder rung this probe climbed to;
	// Degraded marks results produced by a fallback method (GMRES or
	// dense LU) rather than the normal BiCGSTAB path.
	Rung     solver.Rung
	Degraded bool
}

// Factor compiles the assembler into a reusable factored system. The
// assembler's recorded values are copied; it can be discarded afterwards.
func (a *Assembler) Factor() *Factored {
	s := a.static.Build()
	fl := a.flow.Build()
	n := a.N()
	staticRHS := append([]float64(nil), a.rhs...)
	flowRHS := append([]float64(nil), a.flowRHS...)
	agg := append([]int(nil), a.agg...)

	pair, err := sparse.NewAffinePair(s, fl)
	if err != nil {
		panic(err) // both builders share the assembler's dimension; unreachable
	}
	f := &Factored{
		pair:      pair,
		agg:       agg,
		nAgg:      a.nAgg,
		staticRHS: staticRHS,
		flowRHS:   flowRHS,
		rhs:       make([]float64, n),
		scheme:    a.scheme,
		preIters:  -1,
	}
	return f
}

// N returns the system size.
func (f *Factored) N() int { return len(f.rhs) }

// Stats snapshots the cumulative amortization counters. It never blocks
// on the solve lock, so it is safe (and cheap) to call from a metrics
// scraper while a solve is in flight; counters touched by that solve land
// in the next snapshot. The counters are loaded independently, so the
// snapshot is not atomic across fields; loading WarmStarts before Probes
// keeps the WarmStarts <= Probes invariant (each solve increments Probes
// before it can count a warm start).
func (f *Factored) Stats() FactorStats {
	warm := f.ctrWarmStarts.Load()
	st := FactorStats{
		Probes:         int(f.ctrProbes.Load()),
		WarmStarts:     int(warm),
		PrecondBuilds:  int(f.ctrPrecondBuilds.Load()),
		PrecondUpdates: int(f.ctrPrecondUpdates.Load()),
		SolveIters:     int(f.ctrSolveIters.Load()),
		AssemblyNS:     f.ctrAssemblyNS.Load(),
		RetryRebuild:   int(f.ctrRetryRebuild.Load()),
		RetryGMRES:     int(f.ctrRetryGMRES.Load()),
		RetryDense:     int(f.ctrRetryDense.Load()),
		Degraded:       int(f.ctrDegraded.Load()),
		MGLatchOffs:    int(f.ctrMGLatchOffs.Load()),
	}
	if mg := f.mg.Load(); mg != nil {
		st.MG = mg.Stats()
	}
	return st
}

// Multigrid reports the two-level hierarchy, nil while unbuilt (no
// coarse map, ineligible size, or no probe has run yet).
func (f *Factored) Multigrid() *solver.TwoLevel { return f.mg.Load() }

// NNZ returns the stored entries of the union pattern.
func (f *Factored) NNZ() int { return f.pair.Matrix().NNZ() }

// reassemble rewrites the in-place matrix and RHS to scale s and returns
// the nanoseconds spent.
func (f *Factored) reassemble(s float64) int64 {
	t0 := time.Now()
	f.pair.SetShift(s)
	for i := range f.rhs {
		f.rhs[i] = f.staticRHS[i] + s*f.flowRHS[i]
	}
	return time.Since(t0).Nanoseconds()
}

// SystemAt materializes an independent copy of the system at scale s, for
// callers that retain the matrices (transient stepping, inspection).
func (f *Factored) SystemAt(s float64) (*sparse.CSR, []float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rhs := make([]float64, len(f.rhs))
	for i := range rhs {
		rhs[i] = f.staticRHS[i] + s*f.flowRHS[i]
	}
	return f.pair.MatrixCopy(s), rhs
}

// SolveAt solves A(s)·T = b(s), seeding the iteration from the
// minimal-residual combination of the cached fields of the nearest
// previously solved scales (falling back to a uniform tGuess; see
// warmStart). The returned slice is owned by the caller.
//
// On solver failure (breakdown, non-convergence, or a non-finite
// temperature field) it climbs the escalation ladder (see solver.Rung):
// BiCGSTAB with the current preconditioner, then a rebuilt-preconditioner
// cold retry, then GMRES, then — for systems up to
// solver.DenseFallbackMax — dense LU. The rung that produced the result
// is reported in ProbeStats; results from the GMRES or dense rungs are
// marked Degraded.
func (f *Factored) SolveAt(s, tGuess float64) ([]float64, solver.Result, ProbeStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()

	var probe ProbeStats
	probe.AssemblyNS = f.reassemble(s)
	f.ctrProbes.Add(1)
	f.ctrAssemblyNS.Add(probe.AssemblyNS)
	mat := f.pair.Matrix()

	if faults.Fire(faults.ThermalSlow) {
		time.Sleep(faults.Delay())
	}

	tol := f.tol
	if tol <= 0 {
		tol = defaultSolveTol
	}
	t := make([]float64, f.N())
	probe.StartResidual, probe.WarmStarted = f.warmStart(mat, s, tGuess, tol, t)
	if probe.WarmStarted {
		f.ctrWarmStarts.Add(1)
	}

	builds0 := f.ctrPrecondBuilds.Load()
	freshPre := false
	mgActive := f.routePrecond(s)
	if !mgActive {
		// ILU path: a factorization built at a distant scale is reused
		// within the drift window and rebuilt beyond it.
		if f.pre == nil || f.usingMG || scaleDistance(s, f.preScale) > precondMaxDrift {
			f.buildPrecond(mat, s)
			freshPre = true
		}
	}
	f.usingMG = mgActive
	maxIter := 40 * f.N()
	if mgActive && maxIter > mgMaxIter {
		maxIter = mgMaxIter
	}
	opt := solver.Options{
		Tol: tol, MaxIter: maxIter, Precond: f.pre, Restart: 80,
	}
	coldStart := func() {
		for i := range t {
			t[i] = tGuess
		}
	}
	res, rung, err := f.escalate(mat, f.rhs, t, s, opt, freshPre, mgActive, coldStart)
	f.ctrSolveIters.Add(int64(res.Iterations))
	probe.PrecondBuilds = int(f.ctrPrecondBuilds.Load() - builds0)
	probe.Rung = rung
	if err != nil {
		return nil, res, probe, fmt.Errorf("thermal: steady solve failed at rung %v: %w (res %.3g)", rung, err, res.Residual)
	}
	if probe.Degraded = rung.Degraded(); probe.Degraded {
		f.ctrDegraded.Add(1)
	}

	// Track preconditioner quality: remember the iteration count of the
	// first solve that really exercised it (a warm start converging in 0
	// iterations says nothing), and schedule a refresh once solves regress
	// past the threshold (the next probe then factorizes the current
	// matrix).
	if f.preIters < 0 {
		if res.Iterations > 0 {
			f.preIters = res.Iterations
		}
	} else if res.Iterations > precondRegressionFactor*f.preIters+precondRegressionSlack {
		f.pre = nil
		f.preIters = -1
	}

	f.remember(s, t)
	return t, res, probe, nil
}

// escalate climbs the solve ladder for the materialized matrix at scale
// s: BiCGSTAB with the current preconditioner, a rebuilt-preconditioner
// cold retry (latching multigrid off on the way down), GMRES, then dense
// LU for small systems. rhs is the right-hand side and t the initial
// guess, advanced in place; cold() must reset t to the cold-start state
// before a retry. The returned Result carries the total iteration count
// across rungs. Callers hold f.mu; both SolveAt and the transient
// stepper's Step route through this one ladder.
func (f *Factored) escalate(mat *sparse.CSR, rhs, t []float64, s float64,
	opt solver.Options, freshPre, mgActive bool, cold func()) (solver.Result, solver.Rung, error) {
	tol := opt.Tol
	// check rejects solves whose reported residual or field is not
	// finite — a converged-looking solve on a poisoned system must
	// escalate, not propagate NaN temperatures into the searches.
	check := func(res solver.Result, err error) error {
		if err != nil {
			return err
		}
		if notFinite(res.Residual) || !finiteField(t) {
			return fmt.Errorf("thermal: non-finite temperature field: %w", solver.ErrBreakdown)
		}
		return nil
	}

	// Rung 0: BiCGSTAB, warm start, current preconditioner.
	rung := solver.RungPrimary
	res, err := f.work.BiCGSTAB(mat, rhs, t, opt)
	if err == nil && faults.Fire(faults.ThermalNaN) {
		t[0] = math.NaN()
	}
	err = check(res, err)
	totalIters := res.Iterations

	// Rung 1: a preconditioner built at a distant scale can stall the
	// solve; rebuild at the current matrix and retry from a cold start.
	// With multigrid active this is the multigrid → ILU(0) fallback: a
	// V-cycle failure (breakdown, injected fault, a coarse grid that
	// cannot represent the system) latches multigrid off for this
	// Factored and retries on the classic path. Skipped only when an
	// already-fresh ILU factorization just failed.
	if err != nil && (!freshPre || mgActive) {
		rung = solver.RungRetry
		f.ctrRetryRebuild.Add(1)
		if mgActive {
			f.mgDisabled = true
			f.ctrMGLatchOffs.Add(1)
			f.usingMG = false
			mgActive = false
			opt.MaxIter = 40 * f.N()
		}
		f.buildPrecond(mat, s)
		opt.Precond = f.pre
		cold()
		res, err = f.work.BiCGSTAB(mat, rhs, t, opt)
		err = check(res, err)
		totalIters += res.Iterations
	}

	// Rung 2: GMRES, cold start. More robust on the strongly non-normal
	// matrices the central convection stencil produces at high flow.
	if err != nil {
		rung = solver.RungGMRES
		f.ctrRetryGMRES.Add(1)
		cold()
		res, err = solver.GMRES(mat, rhs, t, opt)
		err = check(res, err)
		totalIters += res.Iterations
	}

	// Rung 3: dense LU for small systems — slow but method-independent.
	if err != nil && f.N() <= solver.DenseFallbackMax {
		rung = solver.RungDense
		f.ctrRetryDense.Add(1)
		if x, derr := solver.DenseSolve(mat, rhs); derr == nil {
			copy(t, x)
			res = solver.Result{Residual: solver.RelResidual(mat, rhs, t)}
			if finiteField(t) && res.Residual <= math.Sqrt(tol) {
				err = nil
			} else {
				err = fmt.Errorf("thermal: dense fallback residual %.3g: %w", res.Residual, solver.ErrBreakdown)
			}
		} else {
			err = fmt.Errorf("thermal: dense fallback: %w", derr)
		}
	}

	res.Iterations = totalIters
	return res, rung, err
}

// mgEligible reports whether this probe should route through the
// two-level multigrid preconditioner.
func (f *Factored) mgEligible() bool {
	if f.mgDisabled || f.agg == nil || f.nAgg < 1 || f.nAgg >= f.N() ||
		f.nAgg > solver.DenseCoarseMax {
		return false
	}
	switch GetPrecondStrategy() {
	case PrecondILU:
		return false
	case PrecondMG:
		return true
	}
	return f.N() >= mgMinSize && f.nAgg >= mgMinCoarse && 2*f.nAgg <= f.N()
}

// routePrecond points f.pre at the preconditioner for scale s and
// reports whether it is the multigrid path. The hierarchy (coarse
// pattern, Galerkin base/slope projection, aggregation scatter) is
// built once per Factored; per scale only the coarse values and the
// coarse factorization refresh, and even that is deferred to the first
// Apply so a warm start that is already converged pays nothing.
func (f *Factored) routePrecond(s float64) bool {
	if !f.mgEligible() {
		return false
	}
	mg := f.mg.Load()
	if mg == nil {
		g, err := solver.NewTwoLevel(f.pair, f.agg, f.nAgg, solver.MGOptions{})
		if err != nil {
			f.mgDisabled = true
			f.ctrMGLatchOffs.Add(1)
			return false
		}
		f.mg.Store(g)
		f.ctrPrecondBuilds.Add(1)
		mg = g
	}
	if f.pre == nil || !f.usingMG || f.preScale != s {
		if !f.usingMG {
			f.preIters = -1
		}
		f.pre = &mgPrecond{mg: mg, f: f, scale: s}
		f.preScale = s
	}
	return true
}

// mgPrecond adapts the shared multigrid hierarchy to one probe's scale.
// The coarse refresh happens on the first Apply (cf. lazyPrecond); if
// the coarse system cannot be factorized at this scale the output is
// poisoned so the outer solve breaks down and the escalation ladder
// falls back to ILU(0).
type mgPrecond struct {
	mg     *solver.TwoLevel
	f      *Factored
	scale  float64
	synced bool
	failed bool
}

func (m *mgPrecond) Apply(z, r []float64) {
	if !m.synced {
		m.synced = true
		if m.mg.Shift() != m.scale {
			if err := m.mg.UpdateShift(m.scale); err != nil {
				m.failed = true
			} else {
				m.f.ctrPrecondUpdates.Add(1)
			}
		}
	}
	if m.failed {
		copy(z, r)
		z[0] = math.NaN()
		return
	}
	m.mg.Apply(z, r)
}

func (f *Factored) buildPrecond(mat *sparse.CSR, s float64) {
	f.pre = &lazyPrecond{mat: mat, f: f}
	f.preScale = s
	f.preIters = -1
}

// lazyPrecond defers the ILU factorization to the first Apply: a probe
// whose warm start is already converged (common when revisiting a
// pressure) never pays for a preconditioner it would not use. The
// factorization snapshots the in-place matrix values at first use; f.pre
// is only applied while SolveAt holds f.mu, so the snapshot always
// matches the scale being solved (modulo the accepted drift window).
type lazyPrecond struct {
	mat   *sparse.CSR
	f     *Factored
	inner solver.Preconditioner
}

func (l *lazyPrecond) Apply(z, r []float64) {
	if l.inner == nil {
		l.inner = solver.BestPrecond(l.mat)
		l.f.ctrPrecondBuilds.Add(1)
	}
	l.inner.Apply(z, r)
}

// warmStart writes the initial guess for A(s)·T = b(s) into t and returns
// its relative residual ‖b − A·t‖/‖b‖, computed exactly as BiCGSTAB
// computes its first one, and whether the guess came from cached fields.
//
// The guess projects onto the previous solutions (Fischer, "Projection
// techniques for iterative solution of Ax = b with successive right-hand
// sides", CMAME 1998). With v₁ the cached field nearest to s and
// v₂ … v_k the others by distance (k ≤ maxWarmFields), the columns
// C = [v₁, v₂−v₁, …, v_k−v₁] span the same space as the fields while the
// differences keep their large common part (the inlet temperature) out
// of the least-squares problem. The guess is v₁ + C·y with y minimizing
// ‖b − A·v₁ − A·C·y‖₂, solved by modified Gram–Schmidt QR of A·C with
// re-orthogonalization, dropping near-dependent columns. v₁ alone is
// kept when the nearest field already meets tol, or when its residual
// is not larger than the combination's, so no start is worse than the
// nearest field. Inner products are sequential, so the guess is bitwise
// independent of GOMAXPROCS and the SpMV worker count.
func (f *Factored) warmStart(mat *sparse.CSR, s, tGuess, tol float64, t []float64) (float64, bool) {
	n := f.N()
	var near [maxWarmFields]int
	k := f.nearestFields(s, near[:])
	buf := f.work.Vectors(n, k+1)
	r, cols := buf[:n], buf[n:]
	col := func(j int) []float64 { return cols[j*n : (j+1)*n] }
	bn := solver.Norm2(f.rhs)
	rel := func(v float64) float64 {
		if bn == 0 {
			return 0
		}
		return v / bn
	}
	if k == 0 {
		for i := range t {
			t[i] = tGuess
		}
		return rel(f.residual(mat, t, r)), false
	}

	v1 := f.warm[near[0]].t
	copy(t, v1)
	rNear := f.residual(mat, t, r)
	if k == 1 || rel(rNear) <= tol {
		return rel(rNear), true
	}
	// Column 0 is A·v₁ = b − r; the others are A·(v_j − v₁), with t as
	// the difference scratch.
	for i, ri := range r {
		col(0)[i] = f.rhs[i] - ri
	}
	for j := 1; j < k; j++ {
		vj := f.warm[near[j]].t
		for i := range t {
			t[i] = vj[i] - v1[i]
		}
		mat.MulVecAuto(col(j), t)
	}

	// Modified Gram–Schmidt with one re-orthogonalization pass: A·C = Q·R
	// over the kept columns, Q overwriting the columns in place.
	var rr [maxWarmFields][maxWarmFields]float64
	var kept [maxWarmFields]int
	nk := 0
	for j := 0; j < k; j++ {
		w := col(j)
		norm0 := solver.Norm2(w)
		for pass := 0; pass < 2; pass++ {
			for _, i := range kept[:nk] {
				h := solver.Dot(col(i), w)
				solver.Axpy(-h, col(i), w)
				rr[i][j] += h
			}
		}
		norm := solver.Norm2(w)
		if !(norm > projDropTol*norm0) {
			continue
		}
		for i := range w {
			w[i] /= norm
		}
		rr[j][j] = norm
		kept[nk] = j
		nk++
	}

	// y solves R·y = Qᵀ·r over the kept columns, Qᵀ·r applied the
	// modified Gram–Schmidt way.
	var y [maxWarmFields]float64
	for a, i := range kept[:nk] {
		y[a] = solver.Dot(col(i), r)
		solver.Axpy(-y[a], col(i), r)
	}
	for a := nk - 1; a >= 0; a-- {
		j := kept[a]
		for b := a + 1; b < nk; b++ {
			y[a] -= rr[j][kept[b]] * y[b]
		}
		y[a] /= rr[j][j]
	}

	copy(t, v1)
	for a, j := range kept[:nk] {
		if j == 0 {
			solver.Axpy(y[a], v1, t)
			continue
		}
		vj := f.warm[near[j]].t
		for i := range t {
			t[i] += y[a] * (vj[i] - v1[i])
		}
	}
	// The least-squares residual above is exact only up to rounding;
	// decide on the true one.
	if rProj := f.residual(mat, t, r); rProj < rNear {
		return rel(rProj), true
	}
	copy(t, v1)
	return rel(rNear), true
}

// residual writes b − A·t into r and returns its norm.
func (f *Factored) residual(mat *sparse.CSR, t, r []float64) float64 {
	mat.MulVecAuto(r, t)
	for i := range r {
		r[i] = f.rhs[i] - r[i]
	}
	return solver.Norm2(r)
}

// nearestFields writes into idx the indices of the cached fields ordered
// by distance to s in log space (pressure probes span decades; ratios are
// what predict field similarity), nearest first with ties in cache
// order, and returns how many it wrote.
func (f *Factored) nearestFields(s float64, idx []int) int {
	var dist [maxWarmFields]float64
	for k := range f.warm {
		d := scaleDistance(f.warm[k].scale, s)
		j := k
		for ; j > 0 && dist[j-1] > d; j-- {
			dist[j], idx[j] = dist[j-1], idx[j-1]
		}
		dist[j], idx[j] = d, k
	}
	return len(f.warm)
}

func notFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// finiteField reports whether every entry of t is finite.
func finiteField(t []float64) bool {
	for _, v := range t {
		if notFinite(v) {
			return false
		}
	}
	return true
}

func scaleDistance(a, b float64) float64 {
	if a > 0 && b > 0 {
		return math.Abs(math.Log(a / b))
	}
	return math.Abs(a - b)
}

// remember stores a copy of the solved field, evicting the oldest entry
// (and reusing its storage) once the cache is full.
func (f *Factored) remember(s float64, t []float64) {
	for i := range f.warm {
		if f.warm[i].scale == s {
			copy(f.warm[i].t, t)
			return
		}
	}
	if len(f.warm) >= maxWarmFields {
		old := f.warm[0].t
		copy(f.warm, f.warm[1:])
		copy(old, t)
		f.warm[len(f.warm)-1] = warmField{scale: s, t: old}
		return
	}
	f.warm = append(f.warm, warmField{scale: s, t: append([]float64(nil), t...)})
}
