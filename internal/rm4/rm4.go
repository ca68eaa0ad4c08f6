// Package rm4 implements the 4-register-model thermal simulator of paper
// Section 2.2: thermal cells coincide with basic cells in every layer, so
// the model follows the microchannel geometry exactly. It is the accuracy
// reference used for final evaluation (and the last SA stage), at the
// cost of a much larger linear system than the 2RM model.
package rm4

import (
	"fmt"
	"sync"

	"lcn3d/internal/flow"
	"lcn3d/internal/grid"
	"lcn3d/internal/network"
	"lcn3d/internal/sparse"
	"lcn3d/internal/stack"
	"lcn3d/internal/thermal"
	"lcn3d/internal/units"
)

// Model is a 4RM simulator bound to a stack and one cooling network per
// channel layer.
type Model struct {
	Stk    *stack.Stack
	Nets   []*network.Network // one per channel layer, bottom to top
	Scheme thermal.Scheme

	geom     flow.Geometry
	refFlows []*flow.Solution // flow solutions at P_sys = 1 Pa
	chOfIdx  map[int]int      // layer index -> channel ordinal

	// The factored thermal system is assembled once at the reference
	// pressure and reused across all Simulate probes (pattern, conduction
	// block, warm starts, preconditioner).
	factOnce sync.Once
	fact     *thermal.Factored
	caps     []float64
	factErr  error
}

// New validates the inputs and pre-solves the (pressure-independent) flow
// distribution of every channel layer at a reference pressure.
func New(stk *stack.Stack, nets []*network.Network, scheme thermal.Scheme) (*Model, error) {
	if err := stk.Validate(); err != nil {
		return nil, err
	}
	ch := stk.ChannelLayers()
	if len(nets) != len(ch) {
		return nil, fmt.Errorf("rm4: %d networks for %d channel layers", len(nets), len(ch))
	}
	m := &Model{Stk: stk, Nets: nets, Scheme: scheme, chOfIdx: make(map[int]int)}
	for k, li := range ch {
		m.chOfIdx[li] = k
	}
	m.geom = flow.Geometry{
		Pitch:        stk.Pitch,
		ChannelWidth: stk.ChannelWidth,
		Coolant:      stk.Coolant,
	}
	for k, li := range ch {
		n := nets[k]
		if n.Dims != stk.Dims {
			return nil, fmt.Errorf("rm4: network %d dims %v != stack dims %v", k, n.Dims, stk.Dims)
		}
		if errs := n.Check(); len(errs) > 0 {
			return nil, fmt.Errorf("rm4: network %d illegal: %v", k, errs[0])
		}
		g := m.geom
		g.ChannelHeight = stk.Layers[li].Thickness
		ref, err := flow.Solve(n, g, 1)
		if err != nil {
			return nil, fmt.Errorf("rm4: channel layer %d: %w", k, err)
		}
		m.refFlows = append(m.refFlows, ref)
	}
	return m, nil
}

// Name implements thermal.Model.
func (m *Model) Name() string { return "4RM" }

// node returns the unknown index of cell i in layer l.
func (m *Model) node(l, i int) int { return l*m.Stk.Dims.N() + i }

// NumNodes returns the size of the thermal system.
func (m *Model) NumNodes() int { return len(m.Stk.Layers) * m.Stk.Dims.N() }

// assembleRef builds the steady thermal system at the reference pressure
// of the flow solutions (P_sys = 1 Pa) and also returns the per-node heat
// capacities (J/K) used by the transient extension. Convection terms go
// through the assembler's flow group, so the compiled Factored system
// reproduces any positive pressure by linear scaling.
func (m *Model) assembleRef() (*thermal.Assembler, []float64, error) {
	stk := m.Stk
	d := stk.Dims
	n := d.N()
	asm := thermal.NewAssembler(m.NumNodes(), m.Scheme)
	caps := make([]float64, m.NumNodes())
	pitch := stk.Pitch

	var qsysTotal float64
	for _, ref := range m.refFlows {
		qsysTotal += ref.Qsys
	}
	if qsysTotal <= 0 && stk.TotalPower() > 0 {
		return nil, nil, fmt.Errorf("rm4: network admits no coolant flow")
	}

	for l, layer := range stk.Layers {
		t := layer.Thickness
		kSolid := layer.Mat.K
		isCh := layer.Kind == stack.Channel
		var net *network.Network
		var fs *flow.Solution
		if isCh {
			k := m.chOfIdx[l]
			net = m.Nets[k]
			fs = m.refFlows[k]
		}
		liquid := func(i int) bool { return isCh && net.Liquid[i] }
		// Film coefficient per liquid cell; width modulation (GreenCool
		// baselines) changes the duct aspect ratio and thus h_conv.
		hconvAt := func(i int) float64 {
			x, y := d.Coord(i)
			return units.HeatTransferCoeff(stk.Coolant, net.WidthAt(x, y, stk.ChannelWidth), t)
		}
		// Top/bottom wetted fraction: a channel narrower than the cell
		// pitch touches the layers above/below over w x pitch only.
		wetFracAt := func(i int) float64 {
			x, y := d.Coord(i)
			return net.WidthAt(x, y, stk.ChannelWidth) / stk.Pitch
		}

		// Heat capacities.
		vol := pitch * pitch * t
		for i := 0; i < n; i++ {
			if liquid(i) {
				caps[m.node(l, i)] = stk.Coolant.Cv * vol
			} else {
				caps[m.node(l, i)] = layer.Mat.Cv * vol
			}
		}

		// Lateral conduction within the layer (stamp east/north once).
		for y := 0; y < d.NY; y++ {
			for x := 0; x < d.NX; x++ {
				i := d.Index(x, y)
				for _, nb := range [2][2]int{{x + 1, y}, {x, y + 1}} {
					if !d.In(nb[0], nb[1]) {
						continue
					}
					j := d.Index(nb[0], nb[1])
					var g float64
					li, lj := liquid(i), liquid(j)
					switch {
					case !li && !lj:
						// Solid-solid (Eq. (4)): g = k*A/l with A = t*pitch,
						// l = pitch.
						g = kSolid * t
					case li && lj:
						// Liquid-liquid conduction (convection handled from
						// the flow field below).
						g = stk.Coolant.K * t
					default:
						// Solid-liquid through the side wall (Eq. (5)):
						// half-cell solid conduction in series with the
						// convective film on the side wall area t*pitch.
						liqIdx := i
						if !li {
							liqIdx = j
						}
						g = units.SeriesG(hconvAt(liqIdx)*t*pitch, 2*kSolid*t)
					}
					asm.Conductance(m.node(l, i), m.node(l, j), g)
				}
			}
		}

		// Vertical conduction to the layer above.
		if l+1 < len(stk.Layers) {
			up := stk.Layers[l+1]
			upCh := up.Kind == stack.Channel
			var upNet *network.Network
			if upCh {
				upNet = m.Nets[m.chOfIdx[l+1]]
			}
			area := pitch * pitch
			for i := 0; i < n; i++ {
				var gLo, gHi float64
				if liquid(i) {
					gLo = hconvAt(i) * area * wetFracAt(i)
				} else {
					gLo = 2 * kSolid * area / t
				}
				if upCh && upNet.Liquid[i] {
					x, y := d.Coord(i)
					upW := upNet.WidthAt(x, y, stk.ChannelWidth)
					gHi = units.HeatTransferCoeff(stk.Coolant, upW, up.Thickness) * area * (upW / stk.Pitch)
				} else {
					gHi = 2 * up.Mat.K * area / up.Thickness
				}
				asm.Conductance(m.node(l, i), m.node(l+1, i), units.SeriesG(gLo, gHi))
			}
		}

		// Convective transport along the channels (Eq. (6)).
		if isCh {
			cv := stk.Coolant.Cv
			for y := 0; y < d.NY; y++ {
				for x := 0; x < d.NX; x++ {
					i := d.Index(x, y)
					if !fs.Active[i] {
						continue
					}
					if q := fs.QEast[i]; q > 0 {
						asm.Convection(m.node(l, i), m.node(l, d.Index(x+1, y)), cv*q)
					} else if q < 0 {
						asm.Convection(m.node(l, d.Index(x+1, y)), m.node(l, i), -cv*q)
					}
					if q := fs.QNorth[i]; q > 0 {
						asm.Convection(m.node(l, i), m.node(l, d.Index(x, y+1)), cv*q)
					} else if q < 0 {
						asm.Convection(m.node(l, d.Index(x, y+1)), m.node(l, i), -cv*q)
					}
					if q := fs.QIn[i]; q > 0 {
						asm.ConvectionInlet(m.node(l, i), cv*q, stk.TinK)
					}
					if q := fs.QOut[i]; q > 0 {
						asm.ConvectionOutlet(m.node(l, i), cv*q)
					}
				}
			}
		}

		// Heat sources.
		if layer.Kind == stack.Source {
			for i := 0; i < n; i++ {
				asm.Source(m.node(l, i), layer.Power.W[i])
			}
		}
	}
	m.setCoarseMap(asm)
	return asm, caps, nil
}

// mgCoarsen is the tile side (in basic cells) of the multigrid coarse
// space — the paper's 2RM coarsening factor, so the coarse grid of the
// 4RM solve is exactly the 2RM cell structure of the same stack.
const mgCoarsen = 4

// setCoarseMap hands the assembler the 2RM-structured aggregation for
// the two-level multigrid preconditioner: per layer and m×m tile one
// solid aggregate, plus one liquid aggregate in channel layers (the
// solid/liquid split is what makes the coarse operator see the
// convective transport separately from conduction, like 2RM does).
func (m *Model) setCoarseMap(asm *thermal.Assembler) {
	d := m.Stk.Dims
	til, err := grid.NewTiling(d, mgCoarsen)
	if err != nil {
		return
	}
	n := d.N()
	ncc := til.Coarse.N()
	agg := make([]int, m.NumNodes())
	next := 0
	solidID := make([]int, ncc)
	liquidID := make([]int, ncc)
	for l, layer := range m.Stk.Layers {
		isCh := layer.Kind == stack.Channel
		var net *network.Network
		if isCh {
			net = m.Nets[m.chOfIdx[l]]
		}
		for c := 0; c < ncc; c++ {
			solidID[c], liquidID[c] = -1, -1
		}
		for i := 0; i < n; i++ {
			x, y := d.Coord(i)
			cx, cy := til.CoarseOf(x, y)
			c := til.Coarse.Index(cx, cy)
			if isCh && net.Liquid[i] {
				if liquidID[c] < 0 {
					liquidID[c] = next
					next++
				}
				agg[m.node(l, i)] = liquidID[c]
			} else {
				if solidID[c] < 0 {
					solidID[c] = next
					next++
				}
				agg[m.node(l, i)] = solidID[c]
			}
		}
	}
	asm.SetCoarseMap(agg, next)
}

// factored lazily compiles the reference-pressure system.
func (m *Model) factored() (*thermal.Factored, error) {
	m.factOnce.Do(func() {
		asm, caps, err := m.assembleRef()
		if err != nil {
			m.factErr = err
			return
		}
		m.fact = asm.Factor()
		m.caps = caps
	})
	return m.fact, m.factErr
}

// FactorStats exposes the amortization counters of the model's factored
// system (zero-valued before the first Simulate).
func (m *Model) FactorStats() thermal.FactorStats {
	if m.fact == nil {
		return thermal.FactorStats{}
	}
	return m.fact.Stats()
}

// checkFlow rejects pressures at which the powered stack has no coolant
// throughput (no steady state exists under adiabatic boundaries).
func (m *Model) checkFlow(psys float64) error {
	var qsysTotal float64
	for _, ref := range m.refFlows {
		qsysTotal += ref.Qsys * psys
	}
	if qsysTotal <= 0 && m.Stk.TotalPower() > 0 {
		return fmt.Errorf("rm4: no coolant flow at P_sys=%g Pa; steady state does not exist under adiabatic boundaries", psys)
	}
	return nil
}

// Simulate implements thermal.Model. The thermal system is assembled once
// per model at the reference pressure; each probe rescales the convection
// block in place and warm-starts the solve (see thermal.Factored).
func (m *Model) Simulate(psys float64) (*thermal.Outcome, error) {
	out, _, err := m.simulate(psys)
	return out, err
}

// simulate is Simulate that also returns the full temperature field.
func (m *Model) simulate(psys float64) (*thermal.Outcome, []float64, error) {
	if err := m.checkFlow(psys); err != nil {
		return nil, nil, err
	}
	fact, err := m.factored()
	if err != nil {
		return nil, nil, err
	}
	temps, res, probe, err := fact.SolveAt(psys, m.Stk.TinK)
	if err != nil {
		return nil, nil, err
	}
	out := m.outcome(psys, temps, res.Iterations)
	out.Probe = probe
	return out, temps, nil
}

func (m *Model) outcome(psys float64, temps []float64, iters int) *thermal.Outcome {
	d := m.Stk.Dims
	n := d.N()
	out := &thermal.Outcome{
		Psys:       psys,
		SourceDims: d,
		FineDims:   d,
		SolveIters: iters,
	}
	for _, l := range m.Stk.SourceLayers() {
		field := make([]float64, n)
		copy(field, temps[l*n:(l+1)*n])
		out.SourceTemps = append(out.SourceTemps, field)
	}
	out.FineTemps = out.SourceTemps
	out.Metrics = thermal.ComputeMetrics(out.SourceTemps)
	for _, ref := range m.refFlows {
		out.Qsys += ref.Qsys * psys
	}
	out.Wpump = psys * out.Qsys
	if out.Qsys > 0 {
		out.Rsys = psys / out.Qsys
	}
	return out
}

// EnergyBalance returns (coolant enthalpy rise, total die power) at the
// given pressure; the two agree to solver tolerance under the adiabatic
// boundaries (used by the property tests).
func (m *Model) EnergyBalance(psys float64) (carried, injected float64, err error) {
	if err := m.checkFlow(psys); err != nil {
		return 0, 0, err
	}
	fact, err := m.factored()
	if err != nil {
		return 0, 0, err
	}
	temps, _, _, err := fact.SolveAt(psys, m.Stk.TinK)
	if err != nil {
		return 0, 0, err
	}
	for k, li := range m.Stk.ChannelLayers() {
		ref := m.refFlows[k]
		for i, q := range ref.QOut {
			if qs := q * psys; qs > 0 {
				carried += m.Stk.Coolant.Cv * qs * (temps[m.node(li, i)] - m.Stk.TinK)
			}
		}
	}
	return carried, m.Stk.TotalPower(), nil
}

// Temperatures runs a steady simulation and returns the full temperature
// field (layer-major) for inspection and the transient extension.
func (m *Model) Temperatures(psys float64) ([]float64, error) {
	if err := m.checkFlow(psys); err != nil {
		return nil, err
	}
	fact, err := m.factored()
	if err != nil {
		return nil, err
	}
	t, _, _, err := fact.SolveAt(psys, m.Stk.TinK)
	return t, err
}

// System exposes the assembled steady system and heat capacities for the
// transient extension: C dT/dt = b - A T.
func (m *Model) System(psys float64) (a *SystemMatrices, err error) {
	if err := m.checkFlow(psys); err != nil {
		return nil, err
	}
	fact, err := m.factored()
	if err != nil {
		return nil, err
	}
	mat, rhs := fact.SystemAt(psys)
	caps := append([]float64(nil), m.caps...)
	return &SystemMatrices{A: mat, B: rhs, Cap: caps, Tin: m.Stk.TinK}, nil
}

// SystemMatrices bundles a thermal system for transient stepping
// (C dT/dt = B - A·T).
type SystemMatrices struct {
	A   *sparse.CSR // steady conductance matrix
	B   []float64   // constant RHS
	Cap []float64   // node heat capacities, J/K
	Tin float64
}

// LayerField extracts layer l's temperatures from a full field.
func (m *Model) LayerField(temps []float64, l int) []float64 {
	n := m.Stk.Dims.N()
	out := make([]float64, n)
	copy(out, temps[l*n:(l+1)*n])
	return out
}

var _ thermal.Model = (*Model)(nil)
