package anneal

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// quadratic cost with minimum at 7.
func quad(x float64) float64 { return (x - 7) * (x - 7) }

func moveFloat(rng *rand.Rand, x float64) float64 { return x + rng.NormFloat64() }

func TestRunFindsQuadraticMinimum(t *testing.T) {
	best, cost, stats := Run(Config{Iterations: 200, Neighbors: 8, Seed: 1}, 100.0, moveFloat, quad)
	if math.Abs(best-7) > 0.5 {
		t.Fatalf("best %g, want ~7 (cost %g)", best, cost)
	}
	if stats.Evaluations < 200 {
		t.Fatalf("too few evaluations: %d", stats.Evaluations)
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a, ca, _ := Run(Config{Iterations: 50, Neighbors: 4, Seed: 42}, 30.0, moveFloat, quad)
	b, cb, _ := Run(Config{Iterations: 50, Neighbors: 4, Seed: 42}, 30.0, moveFloat, quad)
	if a != b || ca != cb {
		t.Fatalf("same seed should give identical runs: %g/%g vs %g/%g", a, ca, b, cb)
	}
}

func TestRunHandlesInfeasible(t *testing.T) {
	// Cost is +Inf left of 5; SA must still find the feasible minimum 7.
	cost := func(x float64) float64 {
		if x < 5 {
			return math.Inf(1)
		}
		return quad(x)
	}
	best, c, _ := Run(Config{Iterations: 300, Neighbors: 8, Seed: 3}, 20.0, moveFloat, cost)
	if math.IsInf(c, 1) || math.Abs(best-7) > 0.7 {
		t.Fatalf("best %g cost %g", best, c)
	}
}

func TestRunAllInfeasibleStaysPut(t *testing.T) {
	cost := func(x float64) float64 { return math.Inf(1) }
	_, c, stats := Run(Config{Iterations: 20, Neighbors: 4, Seed: 4}, 0.0, moveFloat, cost)
	if !math.IsInf(c, 1) {
		t.Fatalf("cost should remain +Inf, got %g", c)
	}
	if stats.Accepted != 0 {
		t.Fatalf("no infeasible candidate should be accepted, got %d", stats.Accepted)
	}
}

func TestConvergeStopsEarly(t *testing.T) {
	calls := int64(0)
	cost := func(x float64) float64 {
		atomic.AddInt64(&calls, 1)
		return 0 // flat landscape: nothing ever improves
	}
	_, _, stats := Run(Config{Iterations: 1000, Neighbors: 2, Seed: 5, Converge: 10}, 0.0, moveFloat, cost)
	if stats.Iterations > 30 {
		t.Fatalf("converge should stop early, ran %d iterations", stats.Iterations)
	}
}

func TestMoveNeverSeesMutatedState(t *testing.T) {
	// States are slices; move must receive the current accepted state.
	type st = []float64
	cost := func(s st) float64 { return quad(s[0]) }
	move := func(rng *rand.Rand, s st) st {
		c := append(st(nil), s...)
		c[0] += rng.NormFloat64()
		return c
	}
	best, _, _ := Run(Config{Iterations: 150, Neighbors: 6, Seed: 6}, st{50}, move, cost)
	if math.Abs(best[0]-7) > 1 {
		t.Fatalf("best %v", best)
	}
}

func TestMultiRoundBeatsOrMatchesSingle(t *testing.T) {
	// A deceptive cost with a local basin at 0 and global minimum at 40.
	cost := func(x float64) float64 {
		local := x * x
		global := (x-40)*(x-40)*0.25 - 100
		return math.Min(local, global)
	}
	_, c1, _ := Run(Config{Iterations: 60, Neighbors: 4, Seed: 9}, 5.0, moveFloat, cost)
	_, cm, _ := MultiRound(Config{Iterations: 60, Neighbors: 4, Seed: 9}, 6, 5.0, moveFloat, cost)
	if cm > c1 {
		t.Fatalf("multi-round %g should not be worse than single %g", cm, c1)
	}
}

// TestParallelEvaluationActuallyConcurrent proves Run overlaps candidate
// evaluations. Each candidate evaluation waits, until a shared deadline,
// for a second one to be in flight, so the overlap shows on any CPU
// count instead of depending on two ~1 µs evaluations coinciding.
func TestParallelEvaluationActuallyConcurrent(t *testing.T) {
	var calls, inFlight, maxInFlight int64
	deadline := time.Now().Add(10 * time.Second)
	cost := func(x float64) float64 {
		// Run scores the initial state alone, before any candidate batch.
		if atomic.AddInt64(&calls, 1) == 1 {
			return quad(x)
		}
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			old := atomic.LoadInt64(&maxInFlight)
			if cur <= old || atomic.CompareAndSwapInt64(&maxInFlight, old, cur) {
				break
			}
		}
		for atomic.LoadInt64(&maxInFlight) < 2 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
		atomic.AddInt64(&inFlight, -1)
		return quad(x)
	}
	Run(Config{Iterations: 20, Neighbors: 16, Seed: 7, Parallelism: 8}, 0.0, moveFloat, cost)
	if atomic.LoadInt64(&maxInFlight) < 2 {
		t.Fatal("no two candidate evaluations were ever in flight together")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Iterations <= 0 || c.Neighbors <= 0 || c.CoolRate <= 0 || c.Parallelism <= 0 {
		t.Fatalf("defaults missing: %+v", c)
	}
}

func TestMultiRoundDeterministicPerSeed(t *testing.T) {
	cost := func(x float64) float64 { return quad(x) }
	a, ca, _ := MultiRound(Config{Iterations: 40, Neighbors: 4, Seed: 11}, 3, 25.0, moveFloat, cost)
	b, cb, _ := MultiRound(Config{Iterations: 40, Neighbors: 4, Seed: 11}, 3, 25.0, moveFloat, cost)
	if a != b || ca != cb {
		t.Fatalf("MultiRound should be deterministic per seed: %g/%g vs %g/%g", a, ca, b, cb)
	}
}

func TestMultiRoundAggregatesStats(t *testing.T) {
	_, _, stats := MultiRound(Config{Iterations: 10, Neighbors: 2, Seed: 5}, 4, 10.0, moveFloat, quad)
	if stats.Iterations != 40 {
		t.Fatalf("aggregated iterations %d, want 40", stats.Iterations)
	}
	if stats.Evaluations < 80 {
		t.Fatalf("aggregated evaluations %d too low", stats.Evaluations)
	}
}

func TestMultiRoundZeroRoundsClamped(t *testing.T) {
	best, c, _ := MultiRound(Config{Iterations: 30, Neighbors: 4, Seed: 6}, 0, 20.0, moveFloat, quad)
	if math.IsInf(c, 1) || math.Abs(best-7) > 3 {
		t.Fatalf("zero rounds should clamp to one round and still work: %g (%g)", best, c)
	}
}
