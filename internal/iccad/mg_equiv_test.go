package iccad

import (
	"encoding/json"
	"os"
	"testing"

	"lcn3d/internal/core"
	"lcn3d/internal/network"
	"lcn3d/internal/rm2"
	"lcn3d/internal/thermal"
)

// TestGoldenMultigridEquivalence recomputes the 2RM half of every golden
// fixture with the two-level multigrid preconditioner forced on (the
// fixtures are small enough that PrecondAuto would route them to ILU(0))
// and checks the results against the committed goldens at the corpus
// tolerance. This is the equivalence contract for the multigrid path:
// same physics, same search outcome, only the preconditioner differs.
// The 4RM fixtures are not rerun: their coarse maps exceed
// solver.DenseCoarseMax, so they take ILU(0) under every strategy and
// TestGoldenCorpus already covers them.
func TestGoldenMultigridEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates 2RM fixtures under multigrid")
	}
	prev := thermal.GetPrecondStrategy()
	thermal.SetPrecondStrategy(thermal.PrecondMG)
	// Parent Cleanup runs after all parallel subtests finish, so the
	// global strategy stays forced for their whole lifetime.
	t.Cleanup(func() { thermal.SetPrecondStrategy(prev) })
	for _, gc := range goldenCases {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(goldenPath(gc.name))
			if err != nil {
				t.Fatalf("missing golden (run TestGoldenCorpus with -update): %v", err)
			}
			var want goldenFixture
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			b, err := LoadScaled(gc.caseID, goldenDims)
			if err != nil {
				t.Fatal(err)
			}
			n := gc.build(b)
			if h := n.CanonicalHash(); h != want.NetworkHash {
				t.Fatalf("%s: fixture network hash %s, golden %s — the fixture generator changed",
					gc.name, h, want.NetworkHash)
			}
			nets := make([]*network.Network, len(b.Stk.ChannelLayers()))
			for i := range nets {
				nets[i] = n
			}
			mod, err := rm2.New(b.Stk, nets, goldenCoarseM, thermal.Central)
			if err != nil {
				t.Fatal(err)
			}
			got := toGoldenEval(evalGolden(t, b, core.Memo(mod.Simulate), gc.problem))
			if mod.FactorStats().MG.VCycles == 0 {
				t.Fatalf("%s: forced multigrid never ran a V-cycle", gc.name)
			}
			checkEval(t, gc.name, "2rm/multigrid", got, want.RM2)
		})
	}
}
