package solver

import (
	"fmt"
	"math"
	"sync/atomic"

	"lcn3d/internal/faults"
	"lcn3d/internal/sparse"
)

// TwoLevel is a geometric two-level multigrid preconditioner for the
// affine thermal family A(s) = S + s·F. The coarse space is the paper's
// own 2RM discretization: every fine unknown belongs to exactly one
// aggregate (a 2RM thermal cell — for the 4RM system that is one solid
// and one liquid node per m×m tile and layer), the prolongation P is
// piecewise constant over aggregates, and the restriction is R = P^T.
// The coarse operator is the Galerkin projection A_c = R·A·P, which for
// 0/1 aggregation is just a sum of fine entries per coarse entry — so
// A_c inherits the affine split: A_c(s) = (R·S·P) + s·(R·F·P).
//
// One Apply runs a V(pre,post)-cycle with ILU(0) smoothing: pre-smooth
// on the fine grid, restrict the residual, solve the coarse system with
// a dense LU, prolong the correction, post-smooth. The coarse system is
// limited to DenseCoarseMax aggregates: a larger one would need an
// iterative coarse solve inside every V-cycle, which costs more than the
// outer iterations it saves — plain ILU(0) is faster on such systems.
// Pointwise (Jacobi/Gauss-Seidel) smoothing is not an option here: the
// central-differencing convection rows lose diagonal dominance as the
// flow grows — through-flow diagonal contributions cancel while the
// off-diagonals scale with ±c/2 — and pointwise sweeps diverge exactly
// in the regime the pressure searches spend most probes in. The ILU(0)
// smoother handles the advection chains the way the escalation ladder's
// baseline preconditioner does.
//
// The split that keeps the hierarchy cheap across pressure probes: the
// coarse operator is refreshed exactly at every scale for O(nnz_c)
// (A_c is affine in s), absorbing the drift sensitivity that used to
// force a full ILU refactorization at every probe, while the fine
// ILU(0) smoother — which only has to damp local error, not track the
// global temperature profile — is reused across nearby probes and
// refactored only past SmootherMaxDrift.
type TwoLevel struct {
	fine *sparse.CSR
	agg  []int // fine unknown -> coarse aggregate
	nc   int
	opt  MGOptions

	smoother Preconditioner // fine ILU(0) (Jacobi on pivot breakdown)
	smShift  float64        // shift the smoother was factorized at

	coarse        *sparse.CSR
	cBase, cSlope []float64 // Galerkin-projected static/flow blocks
	fmap          []int32   // fine nnz index -> coarse nnz index

	shift float64
	lu    *DenseLU // coarse solver

	xf, rf, zf, rc, ec []float64 // V-cycle scratch

	// Per-level counters (atomics so stats snapshots never block a solve).
	ctrVCycles        atomic.Int64
	ctrSweeps         atomic.Int64
	ctrCoarseSolves   atomic.Int64
	ctrUpdates        atomic.Int64
	ctrSmootherBuilds atomic.Int64
}

// DenseCoarseMax is the largest coarse system NewTwoLevel accepts; the
// coarse system is factorized with a dense LU, so a V-cycle costs
// essentially its smoothing steps. Callers choosing whether multigrid
// will pay off test their aggregate count against it.
const DenseCoarseMax = 96

// MGOptions tunes the V-cycle.
type MGOptions struct {
	PreSweeps  int // smoothing steps before the coarse correction; default 2
	PostSweeps int // smoothing steps after; default 2
	// SmootherMaxDrift is the largest |log(s/s_smoother)| at which the
	// fine ILU(0) smoother is reused before refactorizing; default 0.5
	// (reuse within a ~1.65× scale change). Wider windows fail in the
	// convection-dominated regime: a smoother ~2× stale diverges there,
	// because the flow block it is missing dominates the matrix.
	SmootherMaxDrift float64
}

func (o MGOptions) withDefaults() MGOptions {
	if o.PreSweeps <= 0 {
		o.PreSweeps = 2
	}
	if o.PostSweeps <= 0 {
		o.PostSweeps = 2
	}
	if o.SmootherMaxDrift <= 0 {
		o.SmootherMaxDrift = 0.5
	}
	return o
}

// MGStats snapshots the per-level multigrid counters.
type MGStats struct {
	VCycles        int64 // V-cycles applied (one per preconditioner Apply)
	SmootherSweeps int64 // smoothing steps across all cycles
	SmootherBuilds int64 // fine ILU(0) smoother factorizations
	CoarseSolves   int64 // coarse-grid solves (one per V-cycle)
	Updates        int64 // UpdateShift refreshes of the coarse factorization
}

// Add accumulates another snapshot (used by benches summing over models).
func (s *MGStats) Add(o MGStats) {
	s.VCycles += o.VCycles
	s.SmootherSweeps += o.SmootherSweeps
	s.SmootherBuilds += o.SmootherBuilds
	s.CoarseSolves += o.CoarseSolves
	s.Updates += o.Updates
}

// NewTwoLevel builds the two-level hierarchy over the pair's union
// pattern at the pair's current shift. agg maps every fine unknown to
// one of nc aggregates (the 2RM cell structure), with nc at most
// DenseCoarseMax; the builder compiles the Galerkin coarse pattern and
// the fine→coarse scatter map once.
func NewTwoLevel(pair *sparse.AffinePair, agg []int, nc int, opt MGOptions) (*TwoLevel, error) {
	fine := pair.Matrix()
	n := fine.N
	if len(agg) != n {
		return nil, fmt.Errorf("solver: multigrid aggregate map has %d entries for %d unknowns", len(agg), n)
	}
	if nc < 1 || nc >= n || nc > DenseCoarseMax {
		return nil, fmt.Errorf("solver: multigrid coarse size %d for fine size %d (at most %d)", nc, n, DenseCoarseMax)
	}
	g := &TwoLevel{
		fine: fine, agg: agg, nc: nc, opt: opt.withDefaults(),
		xf: make([]float64, n), rf: make([]float64, n), zf: make([]float64, n),
		rc: make([]float64, nc), ec: make([]float64, nc),
	}

	// Compile the Galerkin coarse pattern: every fine entry (i, j) lands
	// on coarse entry (agg[i], agg[j]). Bucket fine entry indices by
	// coarse row with a counting sort, order each bucket by coarse column
	// with an insertion sort (buckets hold one aggregate's worth of
	// entries), dedup into CSR, and record the scatter map.
	nnz := fine.NNZ()
	cc := make([]int32, nnz)
	rcount := make([]int, nc+1)
	at := 0
	for i := 0; i < n; i++ {
		ai := agg[i]
		if ai < 0 || ai >= nc {
			return nil, fmt.Errorf("solver: multigrid aggregate %d of unknown %d outside [0,%d)", ai, i, nc)
		}
		rcount[ai+1] += fine.RowPtr[i+1] - fine.RowPtr[i]
		for k := fine.RowPtr[i]; k < fine.RowPtr[i+1]; k++ {
			cc[at] = int32(agg[fine.Cols[k]])
			at++
		}
	}
	for c := 0; c < nc; c++ {
		rcount[c+1] += rcount[c]
	}
	order := make([]int32, nnz)
	pos := append([]int(nil), rcount[:nc]...)
	at = 0
	for i := 0; i < n; i++ {
		ai := agg[i]
		for k := fine.RowPtr[i]; k < fine.RowPtr[i+1]; k++ {
			order[pos[ai]] = int32(at)
			pos[ai]++
			at++
		}
	}
	for c := 0; c < nc; c++ {
		bucket := order[rcount[c]:rcount[c+1]]
		for i := 1; i < len(bucket); i++ {
			e := bucket[i]
			j := i - 1
			for j >= 0 && cc[bucket[j]] > cc[e] {
				bucket[j+1] = bucket[j]
				j--
			}
			bucket[j+1] = e
		}
	}
	g.coarse = &sparse.CSR{N: nc, RowPtr: make([]int, nc+1)}
	g.fmap = make([]int32, nnz)
	for c := 0; c < nc; c++ {
		lastC := int32(-1)
		for _, k := range order[rcount[c]:rcount[c+1]] {
			if cc[k] != lastC {
				g.coarse.Cols = append(g.coarse.Cols, int(cc[k]))
				g.coarse.RowPtr[c+1]++
				lastC = cc[k]
			}
			g.fmap[k] = int32(len(g.coarse.Cols) - 1)
		}
	}
	for c := 0; c < nc; c++ {
		g.coarse.RowPtr[c+1] += g.coarse.RowPtr[c]
	}
	cnnz := len(g.coarse.Cols)
	g.coarse.Vals = make([]float64, cnnz)
	g.cBase = make([]float64, cnnz)
	g.cSlope = make([]float64, cnnz)
	base, slope := pair.Base(), pair.Slope()
	for k := 0; k < nnz; k++ {
		g.cBase[g.fmap[k]] += base[k]
		g.cSlope[g.fmap[k]] += slope[k]
	}
	if err := g.UpdateShift(pair.Shift()); err != nil {
		return nil, err
	}
	return g, nil
}

// Shift reports the flow scale the coarse factorization is current at.
func (g *TwoLevel) Shift() float64 { return g.shift }

// NumCoarse reports the coarse system size.
func (g *TwoLevel) NumCoarse() int { return g.nc }

// UpdateShift refreshes the coarse operator to A_c(s) = R·(S + s·F)·P
// and refactorizes the coarse solver — O(nnz_c) plus the coarse
// factorization, the per-pressure-probe cost of keeping the coarse
// correction exactly current. The fine ILU(0) smoother is refactored
// only when the shift has drifted past SmootherMaxDrift since its last
// factorization.
func (g *TwoLevel) UpdateShift(s float64) error {
	for k := range g.coarse.Vals {
		g.coarse.Vals[k] = g.cBase[k] + s*g.cSlope[k]
	}
	if g.smoother == nil || scaleDist(s, g.smShift) > g.opt.SmootherMaxDrift {
		g.smoother = BestPrecond(g.fine)
		g.smShift = s
		g.ctrSmootherBuilds.Add(1)
	}
	g.shift = s
	g.ctrUpdates.Add(1)
	lu, err := NewDenseLU(g.coarse)
	if err != nil {
		return fmt.Errorf("solver: multigrid coarse factorization at s=%g: %w", s, err)
	}
	g.lu = lu
	return nil
}

// scaleDist measures shift drift in log space (pressure probes span
// decades; ratios are what predict how far a factorization has aged).
func scaleDist(a, b float64) float64 {
	if a > 0 && b > 0 {
		return math.Abs(math.Log(a / b))
	}
	return math.Abs(a - b)
}

// Stats snapshots the per-level counters.
func (g *TwoLevel) Stats() MGStats {
	return MGStats{
		VCycles:        g.ctrVCycles.Load(),
		SmootherSweeps: g.ctrSweeps.Load(),
		SmootherBuilds: g.ctrSmootherBuilds.Load(),
		CoarseSolves:   g.ctrCoarseSolves.Load(),
		Updates:        g.ctrUpdates.Load(),
	}
}

// smoothStep applies one smoothing step x += M⁻¹(r - A·x) with the fine
// ILU(0) smoother. first marks x as known-zero, skipping the residual.
func (g *TwoLevel) smoothStep(x, r []float64, first bool) {
	if first {
		g.smoother.Apply(x, r)
	} else {
		g.fine.MulVecAuto(g.rf, x)
		for i := range g.rf {
			g.rf[i] = r[i] - g.rf[i]
		}
		g.smoother.Apply(g.zf, g.rf)
		for i := range x {
			x[i] += g.zf[i]
		}
	}
	g.ctrSweeps.Add(1)
}

// Apply runs one V-cycle on M z = r with a zero initial guess,
// implementing Preconditioner. The cycle is a fixed linear operation —
// fixed smoothing steps, a frozen smoother factorization, and a direct
// coarse solve — so the outer Krylov iteration sees a constant
// preconditioner.
func (g *TwoLevel) Apply(z, r []float64) {
	g.ctrVCycles.Add(1)
	x := g.xf
	for i := range x {
		x[i] = 0
	}
	for s := 0; s < g.opt.PreSweeps; s++ {
		g.smoothStep(x, r, s == 0)
	}
	if faults.Fire(faults.MGSmoother) {
		x[0] = math.NaN()
	}

	// Coarse-grid correction on the pre-smoothed residual.
	g.fine.MulVecAuto(g.rf, x)
	for i := range g.rf {
		g.rf[i] = r[i] - g.rf[i]
	}
	for c := range g.rc {
		g.rc[c] = 0
	}
	for i, a := range g.agg {
		g.rc[a] += g.rf[i]
	}
	if faults.Fire(faults.MGRestrict) {
		g.rc[0] = math.NaN()
	}
	g.ctrCoarseSolves.Add(1)
	g.lu.Solve(g.ec, g.rc)
	if faults.Fire(faults.MGCoarse) {
		g.ec[0] = math.NaN()
	}
	for i, a := range g.agg {
		x[i] += g.ec[a]
	}

	for s := 0; s < g.opt.PostSweeps; s++ {
		g.smoothStep(x, r, false)
	}
	copy(z, x)
}
