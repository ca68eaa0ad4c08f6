package thermal

import (
	"fmt"
	"math"
	"time"

	"lcn3d/internal/faults"
	"lcn3d/internal/solver"
	"lcn3d/internal/sparse"
)

// TransientSystem integrates C dT/dt = b(s) - A(s)·T with backward Euler,
// the transient extension the paper notes for both models ("it can be
// easily extended to transient one"). Each step solves
//
//	(C/dt + A(s)) T_{n+1} = C/dt·T_n + b(s) [+ q]
//
// through the same machinery the steady probes use: the affine
// static/flow split A(s) = S + s·F (so the pump pressure is a value
// rewrite, not a reassembly), the multigrid/ILU preconditioner routing,
// the escalation ladder, and the NaN/Inf guards. The implicit matrix is
// factorized exactly once per (dt, s) segment — SetDt folds a new C/dt
// into the diagonal in place and SetScale only moves the affine shift —
// so a trace of hundreds of steps pays for one preconditioner per
// segment and one linear solve per step, each warm-started from the
// previous field.
//
// Step is safe for concurrent use; steps on one system serialize.
type TransientSystem struct {
	// A, B and Cap are the legacy view kept for existing callers. B is
	// live: the stepper reads it at every step, so callers (internal/dtm)
	// may rewrite it in place between steps to vary the heat sources. On
	// the Factored construction path A is nil and B aliases the static
	// RHS.
	A   *sparse.CSR
	B   []float64
	Cap []float64 // per-node heat capacity, J/K (assembly order)

	f     *Factored
	dt    float64
	scale float64 // current affine shift s (the pump pressure, Pa)

	diag     []int     // value-array index of each row's diagonal
	baseDiag []float64 // static diagonal before the +C/dt fold
	heatCap  []float64 // private copy of Cap
	src      []float64 // extra source RHS, nil when unset

	xWork, diagWork []float64 // scratch

	steps    int // completed Step calls
	segments int // distinct (dt, s) segments entered
}

// TransientStats reports how much work a trace did and how well the
// factorization amortized across it: Steps solves rode on Segments
// matrix factorizations (one per distinct (dt, s) pair), with the
// embedded FactorStats carrying the solver-side counters.
type TransientStats struct {
	Steps    int
	Segments int
	FactorStats
}

// NewTransientSystem prepares a stepper from an already materialized
// system matrix with a fixed time step dt (s). The matrix is treated as
// pressure-independent (the affine slope is empty); use
// Factored.Transient to keep the pump pressure adjustable mid-trace.
// b is aliased, not copied: callers may rewrite it in place between
// steps to vary the heat sources (internal/dtm does).
func NewTransientSystem(a *sparse.CSR, b, caps []float64, dt float64) (*TransientSystem, error) {
	if len(b) != a.N || len(caps) != a.N {
		return nil, fmt.Errorf("thermal: transient dimension mismatch")
	}
	s := sparse.WithDiagonal(a)
	empty := &sparse.CSR{N: a.N, RowPtr: make([]int, a.N+1)}
	pair, err := sparse.NewAffinePair(s, empty)
	if err != nil {
		return nil, err
	}
	f := &Factored{
		pair:      pair,
		staticRHS: b, // aliased on purpose: see the doc comment
		flowRHS:   make([]float64, a.N),
		rhs:       make([]float64, a.N),
		preIters:  -1,
	}
	ts, err := newTransient(f, caps, dt, 0)
	if err != nil {
		return nil, err
	}
	ts.A = a
	ts.B = b
	return ts, nil
}

// Transient compiles an implicit-Euler stepper that shares this factored
// system's compiled pattern, static/flow RHS split, coarse map, and
// solve tolerance. caps are per-node heat capacities (J/K), psys the
// initial pump pressure (the affine shift), dt the time step (s). The
// stepper owns a private copy of the system, so steady probes on f
// continue unaffected.
func (f *Factored) Transient(caps []float64, dt, psys float64) (*TransientSystem, error) {
	f.mu.Lock()
	n := f.N()
	um := f.pair.Matrix()
	sM := &sparse.CSR{N: n, RowPtr: um.RowPtr, Cols: um.Cols, Vals: f.pair.Base()}
	fM := &sparse.CSR{N: n, RowPtr: um.RowPtr, Cols: um.Cols, Vals: f.pair.Slope()}
	// NewAffinePair copies its inputs, so sharing the union arrays here is
	// safe; WithDiagonal only copies when a diagonal slot is missing.
	pair, err := sparse.NewAffinePair(sparse.WithDiagonal(sM), fM)
	if err != nil {
		f.mu.Unlock()
		return nil, err
	}
	tf := &Factored{
		pair:      pair,
		agg:       f.agg,
		nAgg:      f.nAgg,
		staticRHS: append([]float64(nil), f.staticRHS...),
		flowRHS:   append([]float64(nil), f.flowRHS...),
		rhs:       make([]float64, n),
		scheme:    f.scheme,
		preIters:  -1,
		tol:       f.tol,
	}
	f.mu.Unlock()
	pair.SetShift(psys)
	ts, err := newTransient(tf, append([]float64(nil), caps...), dt, psys)
	if err != nil {
		return nil, err
	}
	ts.B = tf.staticRHS
	return ts, nil
}

// newTransient wires a stepper around a Factored the stepper owns
// exclusively. caps are in the assembly order; psys is the initial shift.
func newTransient(f *Factored, caps []float64, dt, psys float64) (*TransientSystem, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: time step %g must be positive", dt)
	}
	if psys < 0 || notFinite(psys) {
		return nil, fmt.Errorf("thermal: transient pressure %g must be finite and non-negative", psys)
	}
	n := f.N()
	if len(caps) != n {
		return nil, fmt.Errorf("thermal: transient dimension mismatch")
	}
	diag, err := f.pair.Matrix().DiagIndices()
	if err != nil {
		return nil, fmt.Errorf("thermal: transient: %w", err)
	}
	base := f.pair.Base()
	baseDiag := make([]float64, n)
	for i, k := range diag {
		baseDiag[i] = base[k]
	}
	ts := &TransientSystem{
		Cap: caps, f: f, dt: dt, scale: psys,
		diag: diag, baseDiag: baseDiag, heatCap: append([]float64(nil), caps...),
		xWork:    make([]float64, n),
		diagWork: make([]float64, n),
		segments: 1,
	}
	ts.foldDt()
	return ts, nil
}

// foldDt rewrites the pair's base diagonal to (static diagonal + C/dt)
// in place under the current shift — the only part of the LHS that
// depends on the time step.
func (ts *TransientSystem) foldDt() {
	for i := range ts.diagWork {
		ts.diagWork[i] = ts.baseDiag[i] + ts.heatCap[i]/ts.dt
	}
	ts.f.pair.SetBaseAt(ts.diag, ts.diagWork)
}

// Dt returns the current time step.
func (ts *TransientSystem) Dt() float64 {
	ts.f.mu.Lock()
	defer ts.f.mu.Unlock()
	return ts.dt
}

// Scale returns the current affine shift (pump pressure, Pa).
func (ts *TransientSystem) Scale() float64 {
	ts.f.mu.Lock()
	defer ts.f.mu.Unlock()
	return ts.scale
}

// N returns the system size.
func (ts *TransientSystem) N() int { return ts.f.N() }

// SetDt changes the time step, refreshing the C/dt diagonal in place —
// no pattern work and no full LHS rebuild; only the preconditioner is
// invalidated, so the new (dt, s) segment refactorizes exactly once on
// its first step.
func (ts *TransientSystem) SetDt(dt float64) error {
	if dt <= 0 || notFinite(dt) {
		return fmt.Errorf("thermal: time step %g must be positive", dt)
	}
	f := ts.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if dt == ts.dt {
		return nil
	}
	ts.dt = dt
	ts.foldDt()
	ts.invalidatePrecondLocked()
	ts.segments++
	return nil
}

// SetScale changes the pump pressure (the affine shift s). The matrix
// values rematerialize lazily on the next step; whether the
// preconditioner survives follows the same drift window the steady
// probes use, so small pressure moves (pump ramps) reuse it and decade
// jumps refactorize.
func (ts *TransientSystem) SetScale(s float64) error {
	if s < 0 || notFinite(s) {
		return fmt.Errorf("thermal: transient pressure %g must be finite and non-negative", s)
	}
	f := ts.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if s == ts.scale {
		return nil
	}
	ts.scale = s
	ts.segments++
	return nil
}

// SetSourceDelta adds delta (assembly order, W) to the right-hand side
// of every subsequent step, on top of the compiled b(s). Power schedules
// are RHS-only: changing them costs one vector copy and never a
// factorization. A nil delta clears the term.
func (ts *TransientSystem) SetSourceDelta(delta []float64) error {
	f := ts.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if delta == nil {
		ts.src = nil
		return nil
	}
	if len(delta) != f.N() {
		return fmt.Errorf("thermal: source delta has %d entries, want %d", len(delta), f.N())
	}
	if ts.src == nil {
		ts.src = make([]float64, f.N())
	}
	copy(ts.src, delta)
	return nil
}

// invalidatePrecondLocked drops every structure compiled from the old
// base values: the ILU factorization, the multigrid hierarchy (its
// Galerkin coarse base was projected from the pre-SetDt diagonal), and
// the warm-field cache. Callers hold f.mu.
func (ts *TransientSystem) invalidatePrecondLocked() {
	f := ts.f
	f.pre = nil
	f.preIters = -1
	f.usingMG = false
	f.mg.Store(nil)
	f.warm = nil
}

// Step advances the temperature field in place by one implicit-Euler
// step, warm-started from the previous field and escalated through the
// same solve ladder as the steady probes. The field is guarded on both
// sides: a non-finite input is rejected before the solve, and a
// non-finite result never reaches the caller.
func (ts *TransientSystem) Step(t []float64) error {
	f := ts.f
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.N()
	if len(t) != n {
		return fmt.Errorf("thermal: field has %d entries, want %d", len(t), n)
	}
	if !finiteField(t) {
		return fmt.Errorf("thermal: transient field is not finite before the step")
	}
	if faults.Fire(faults.TransientSlow) {
		time.Sleep(faults.Delay())
	}

	// Materialize A(s) if the shift moved, and compose the step RHS:
	// b(s) + C/dt·T_n (+ the schedule's source delta).
	t0 := time.Now()
	if f.pair.Shift() != ts.scale {
		f.pair.SetShift(ts.scale)
	}
	idt := 1 / ts.dt
	for i := 0; i < n; i++ {
		f.rhs[i] = f.staticRHS[i] + ts.scale*f.flowRHS[i] + ts.heatCap[i]*idt*t[i]
	}
	if ts.src != nil {
		for i := range f.rhs {
			f.rhs[i] += ts.src[i]
		}
	}
	f.ctrProbes.Add(1)
	f.ctrAssemblyNS.Add(time.Since(t0).Nanoseconds())

	mat := f.pair.Matrix()
	freshPre := false
	mgActive := f.routePrecond(ts.scale)
	if !mgActive {
		if f.pre == nil || f.usingMG || scaleDistance(ts.scale, f.preScale) > precondMaxDrift {
			f.buildPrecond(mat, ts.scale)
			freshPre = true
		}
	}
	f.usingMG = mgActive
	tol := f.tol
	if tol <= 0 {
		tol = defaultSolveTol
	}
	maxIter := 40 * n
	if mgActive && maxIter > mgMaxIter {
		maxIter = mgMaxIter
	}
	opt := solver.Options{Tol: tol, MaxIter: maxIter, Precond: f.pre, Restart: 80}

	// Every step warm-starts from the physical state — the previous
	// field is both the best available guess and the only cold-start
	// fallback that makes sense mid-trace.
	x := ts.xWork
	copy(x, t)
	f.ctrWarmStarts.Add(1)
	cold := func() { copy(x, t) }
	res, rung, err := f.escalate(mat, f.rhs, x, ts.scale, opt, freshPre, mgActive, cold)
	f.ctrSolveIters.Add(int64(res.Iterations))
	if err != nil {
		return fmt.Errorf("thermal: transient step failed at rung %v: %w (res %.3g)", rung, err, res.Residual)
	}
	if rung.Degraded() {
		f.ctrDegraded.Add(1)
	}
	if faults.Fire(faults.TransientNaN) {
		x[0] = math.NaN()
	}
	if !finiteField(x) {
		return fmt.Errorf("thermal: non-finite temperature field after transient step: %w", solver.ErrBreakdown)
	}
	// No regression-triggered preconditioner churn here: a (dt, s)
	// segment is factorized exactly once, and iteration drift inside a
	// segment escalates through the ladder instead of rebuilding.
	if f.preIters < 0 && res.Iterations > 0 {
		f.preIters = res.Iterations
	}

	copy(t, x)
	ts.steps++
	return nil
}

// Run advances n steps, invoking observe (if non-nil) after each step
// with the elapsed time and current field.
func (ts *TransientSystem) Run(t []float64, n int, observe func(elapsed float64, t []float64)) error {
	for s := 1; s <= n; s++ {
		if err := ts.Step(t); err != nil {
			return fmt.Errorf("thermal: transient step %d: %w", s, err)
		}
		if observe != nil {
			observe(float64(s)*ts.Dt(), t)
		}
	}
	return nil
}

// Stats snapshots the trace counters alongside the underlying solver
// counters. The acceptance bar for the factorization amortization is
// PrecondBuilds == Segments on the ILU path (strictly fewer when
// neighboring segments fall inside the preconditioner drift window).
func (ts *TransientSystem) Stats() TransientStats {
	ts.f.mu.Lock()
	st := TransientStats{Steps: ts.steps, Segments: ts.segments}
	ts.f.mu.Unlock()
	st.FactorStats = ts.f.Stats()
	return st
}
