package rm4

import "lcn3d/internal/thermal"

// SimulateField is Simulate that also returns the full temperature field
// and the factored system that solved it, for tests that replay probes
// outside the model.
func SimulateField(m *Model, psys float64) (*thermal.Outcome, []float64, *thermal.Factored, error) {
	out, temps, err := m.simulate(psys)
	return out, temps, m.fact, err
}
