// Package flow solves the laminar coolant-distribution problem of paper
// Section 2.1: Hagen-Poiseuille conductances between adjacent liquid
// cells, volume conservation at every cell, Dirichlet pressures P_sys at
// the inlets and 0 at the outlets, giving the sparse SPD system
// G·P = Q_in (Eq. (3)). Local flow rates follow from Eq. (1).
package flow

import (
	"fmt"
	"math"

	"lcn3d/internal/faults"
	"lcn3d/internal/grid"
	"lcn3d/internal/network"
	"lcn3d/internal/solver"
	"lcn3d/internal/sparse"
	"lcn3d/internal/units"
)

// Geometry carries the channel-layer physical parameters.
type Geometry struct {
	Pitch         float64 // basic cell pitch, m
	ChannelWidth  float64 // w_c, m
	ChannelHeight float64 // h_c, m
	Coolant       units.Coolant
	// EdgeFactor derates the inlet/outlet conductance relative to a
	// half-pitch duct segment, modeling entrance/exit losses (the paper
	// notes g_fluid,edge is smaller than the cell-to-cell conductance).
	// Zero means the default 0.4, which makes g_edge = 0.8 * g_cell.
	EdgeFactor float64
}

func (g Geometry) withDefaults() Geometry {
	if g.EdgeFactor == 0 {
		g.EdgeFactor = 0.4
	}
	if g.Coolant.Name == "" {
		g.Coolant = units.Water
	}
	return g
}

// CellConductance returns the fluid conductance between two adjacent
// liquid cells.
func (g Geometry) CellConductance() float64 {
	return units.FluidConductance(g.ChannelWidth, g.ChannelHeight, g.Pitch, g.Coolant.Mu)
}

// EdgeConductance returns the fluid conductance between a boundary liquid
// cell and its inlet/outlet opening.
func (g Geometry) EdgeConductance() float64 {
	gg := g.withDefaults()
	return gg.EdgeFactor * units.FluidConductance(g.ChannelWidth, g.ChannelHeight, g.Pitch/2, g.Coolant.Mu)
}

// Solution is a solved pressure/flow field.
type Solution struct {
	Net  *network.Network
	Geom Geometry
	Psys float64

	Pressure []float64 // per basic cell; 0 for solid or excluded cells
	Active   []bool    // liquid cells included in the solve

	// QEast[i] / QNorth[i] are the signed volumetric flows leaving cell i
	// toward its east / north neighbor (m^3/s, positive eastward /
	// northward). West/south flows are the negated neighbor entries.
	QEast, QNorth []float64

	QIn  []float64 // inflow from inlet ports at each boundary cell (>= 0)
	QOut []float64 // outflow to outlet ports at each boundary cell (>= 0)

	Qsys  float64 // total system flow rate, m^3/s
	Rsys  float64 // system fluid resistance P_sys/Q_sys, Pa*s/m^3
	Wpump float64 // pumping power P_sys*Q_sys, W (η omitted, see paper)

	SolveIters int
	// Rung is the escalation-ladder rung that produced the pressure
	// field (see solver.Rung); Degraded marks solutions that needed any
	// fallback from the primary CG solve.
	Rung     solver.Rung
	Degraded bool
}

// Solve computes the pressure and flow field for the network under the
// given system pressure drop.
func Solve(net *network.Network, geom Geometry, psys float64) (*Solution, error) {
	if psys < 0 {
		return nil, fmt.Errorf("flow: negative system pressure %g", psys)
	}
	geom = geom.withDefaults()
	d := net.Dims
	s := &Solution{
		Net: net, Geom: geom, Psys: psys,
		Pressure: make([]float64, d.N()),
		Active:   make([]bool, d.N()),
		QEast:    make([]float64, d.N()),
		QNorth:   make([]float64, d.N()),
		QIn:      make([]float64, d.N()),
		QOut:     make([]float64, d.N()),
	}

	// Components that touch at least one port have a well-posed pressure;
	// fully enclosed components are excluded (stagnant, P := 0).
	labels, num := net.Components()
	touched := make([]bool, num)
	inlets := net.PortCells(network.Inlet)
	outlets := net.PortCells(network.Outlet)
	for _, i := range inlets {
		touched[labels[i]] = true
	}
	for _, i := range outlets {
		touched[labels[i]] = true
	}
	idx := make([]int, d.N()) // cell -> unknown index or -1
	var cells []int           // unknown -> cell
	for i := range idx {
		idx[i] = -1
		if labels[i] >= 0 && touched[labels[i]] {
			idx[i] = len(cells)
			cells = append(cells, i)
			s.Active[i] = true
		}
	}
	if len(cells) == 0 {
		return s, nil // no flowing liquid at all
	}

	// Per-edge conductances: for uniform channels both halves equal the
	// nominal half-cell conductance, so the series combination reduces to
	// geom.CellConductance(). With width modulation each half uses the
	// local channel width (GreenCool-style baselines; see network/width.go).
	geHalf := geom.EdgeFactor
	halfG := func(i int) float64 {
		x, y := d.Coord(i)
		w := net.WidthAt(x, y, geom.ChannelWidth)
		return units.FluidConductance(w, geom.ChannelHeight, geom.Pitch/2, geom.Coolant.Mu)
	}
	gE := make([]float64, d.N()) // conductance to the east neighbor
	gN := make([]float64, d.N()) // conductance to the north neighbor
	edgeG := make([]float64, d.N())
	for _, i := range cells {
		edgeG[i] = geHalf * halfG(i)
	}

	b := sparse.NewBuilder(len(cells))
	rhs := make([]float64, len(cells))
	for u, i := range cells {
		x, y := d.Coord(i)
		// East and north neighbors stamp the symmetric pair once.
		d.Neighbors4(x, y, func(nx, ny int, dir grid.Dir) {
			if dir != grid.East && dir != grid.North {
				return
			}
			j := d.Index(nx, ny)
			if v := idx[j]; v >= 0 {
				g := units.SeriesG(halfG(i), halfG(j))
				if dir == grid.East {
					gE[i] = g
				} else {
					gN[i] = g
				}
				b.AddSym(u, v, g)
			}
		})
	}
	// Port attachments (Dirichlet via edge conductance).
	addPort := func(cellIdx []int, pressure float64) {
		for _, i := range cellIdx {
			u := idx[i]
			if u < 0 {
				continue
			}
			b.Add(u, u, edgeG[i])
			rhs[u] += edgeG[i] * pressure
		}
	}
	addPort(inlets, psys)
	addPort(outlets, 0)

	m := b.Build()
	p := make([]float64, len(cells))
	iters, err := solvePressure(m, rhs, p, psys, s)
	if err != nil {
		return nil, err
	}
	s.SolveIters = iters

	for u, i := range cells {
		s.Pressure[i] = p[u]
	}
	// Local flow rates (Eq. (1)) and port flows.
	for _, i := range cells {
		x, y := d.Coord(i)
		if x+1 < d.NX {
			j := d.Index(x+1, y)
			if s.Active[j] {
				s.QEast[i] = gE[i] * (s.Pressure[i] - s.Pressure[j])
			}
		}
		if y+1 < d.NY {
			j := d.Index(x, y+1)
			if s.Active[j] {
				s.QNorth[i] = gN[i] * (s.Pressure[i] - s.Pressure[j])
			}
		}
	}
	for _, i := range inlets {
		if s.Active[i] {
			s.QIn[i] += edgeG[i] * (psys - s.Pressure[i])
		}
	}
	for _, i := range outlets {
		if s.Active[i] {
			s.QOut[i] += edgeG[i] * s.Pressure[i]
		}
	}
	for i := range s.QIn {
		s.Qsys += s.QIn[i]
	}
	if s.Qsys > 0 {
		s.Rsys = psys / s.Qsys
	} else {
		s.Rsys = math.Inf(1)
	}
	s.Wpump = psys * s.Qsys
	return s, nil
}

// solvePressure runs the pressure solve through the solver escalation
// ladder: CG (the normal method for this SPD system), then BiCGSTAB from
// a cold restart, then restarted GMRES, then dense LU for systems up to
// solver.DenseFallbackMax. Any fallback from CG is abnormal for an SPD
// system, so every rung past the primary marks the solution degraded.
// It records the winning rung on s and returns the total iteration count
// across rungs.
func solvePressure(m *sparse.CSR, rhs, p []float64, psys float64, s *Solution) (int, error) {
	opt := solver.Options{Tol: 1e-11, MaxIter: 20 * len(p), Precond: solver.BestPrecond(m)}
	// Start from psys/2 everywhere, which halves iterations on typical
	// networks relative to a zero guess.
	coldStart := func() {
		for i := range p {
			p[i] = psys / 2
		}
	}
	check := func(res solver.Result, err error) error {
		if err != nil {
			return err
		}
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("flow: non-finite pressure field: %w", solver.ErrBreakdown)
			}
		}
		return nil
	}

	coldStart()
	rung := solver.RungPrimary
	var total int
	var res solver.Result
	var err error
	if faults.Fire(faults.FlowBreakdown) {
		err = solver.ErrBreakdown
	} else {
		res, err = solver.CG(m, rhs, p, opt)
		total += res.Iterations
		err = check(res, err)
	}
	if err != nil {
		rung = solver.RungRetry
		coldStart()
		res, err = solver.BiCGSTAB(m, rhs, p, opt)
		total += res.Iterations
		err = check(res, err)
	}
	if err != nil {
		rung = solver.RungGMRES
		coldStart()
		res, err = solver.GMRES(m, rhs, p, opt)
		total += res.Iterations
		err = check(res, err)
	}
	if err != nil && len(p) <= solver.DenseFallbackMax {
		rung = solver.RungDense
		if x, derr := solver.DenseSolve(m, rhs); derr == nil {
			copy(p, x)
			// NaN compares false, so a poisoned dense result fails too.
			if r := solver.RelResidual(m, rhs, p); r <= math.Sqrt(opt.Tol) {
				err = nil
			}
		}
	}
	if err != nil {
		return total, fmt.Errorf("flow: pressure solve failed at rung %v: %w (res %.3g)", rung, err, res.Residual)
	}
	s.Rung = rung
	s.Degraded = rung > solver.RungPrimary
	return total, nil
}

// Q returns the signed flow leaving cell (x, y) in the given direction.
func (s *Solution) Q(x, y int, dir grid.Dir) float64 {
	d := s.Net.Dims
	i := d.Index(x, y)
	switch dir {
	case grid.East:
		return s.QEast[i]
	case grid.North:
		return s.QNorth[i]
	case grid.West:
		if x == 0 {
			return 0
		}
		return -s.QEast[d.Index(x-1, y)]
	case grid.South:
		if y == 0 {
			return 0
		}
		return -s.QNorth[d.Index(x, y-1)]
	}
	panic("flow: bad direction")
}

// NetOutflow returns the total signed flow leaving cell (x, y) including
// port flows; it is ~0 for every liquid cell by volume conservation.
func (s *Solution) NetOutflow(x, y int) float64 {
	i := s.Net.Dims.Index(x, y)
	var sum float64
	for dir := grid.Dir(0); dir < grid.NumDirs; dir++ {
		sum += s.Q(x, y, dir)
	}
	return sum + s.QOut[i] - s.QIn[i]
}

// TotalOutflow sums all outlet flows (== Qsys by conservation).
func (s *Solution) TotalOutflow() float64 {
	var t float64
	for _, q := range s.QOut {
		t += q
	}
	return t
}

// SpeedField returns the coolant speed magnitude per basic cell (m/s),
// averaging the four face flows — useful for flow-map visualization.
// Solid cells read zero.
func (s *Solution) SpeedField() []float64 {
	d := s.Net.Dims
	area := s.Geom.ChannelWidth * s.Geom.ChannelHeight
	out := make([]float64, d.N())
	for i, active := range s.Active {
		if !active {
			continue
		}
		x, y := d.Coord(i)
		var sum float64
		var n int
		for dir := grid.Dir(0); dir < grid.NumDirs; dir++ {
			if q := s.Q(x, y, dir); q != 0 {
				sum += math.Abs(q)
				n++
			}
		}
		sum += s.QIn[i] + s.QOut[i]
		if s.QIn[i] > 0 {
			n++
		}
		if s.QOut[i] > 0 {
			n++
		}
		if n > 0 {
			// Each unit of through-flow is counted on entry and exit.
			out[i] = sum / 2 / area
		}
	}
	return out
}

// MaxReynolds returns the largest cell Reynolds number in the field,
// used to validate the laminar-flow assumption.
func (s *Solution) MaxReynolds(rho float64) float64 {
	var mx float64
	for i := range s.QEast {
		for _, q := range []float64{s.QEast[i], s.QNorth[i]} {
			if q == 0 {
				continue
			}
			re := units.ReynoldsNumber(s.Geom.Coolant, rho, q, s.Geom.ChannelWidth, s.Geom.ChannelHeight)
			if re > mx {
				mx = re
			}
		}
	}
	return mx
}
