package adversary

import (
	"testing"

	"repro/internal/core"
)

// TestSamplerPlanAllocatesNothing holds every seeded adversary, and the
// unseeded Benign and ChainCrash, to plans built in rows carved once: after
// round 1, Plan allocates nothing. The active set shrinks by each plan's
// crashes, as the engine's does. A per-round allocation reads at least 1;
// the register's one build (at a sampler's 274th draw), should it fall in
// the window, reads 1/100 and rounds to 0.
func TestSamplerPlanAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation pins hold in the plain build")
	}
	const n, f, k = 8, 2, 3
	for name, oracle := range map[string]core.Oracle{
		"Benign":              Benign(n),
		"Omission":            Omission(n, f, 0.7, 1),
		"Crash":               Crash(n, f, 1),
		"ChainCrash":          ChainCrash(n, 4, 2),
		"AsyncBudget":         AsyncBudget(n, f, true, 1),
		"SharedMem":           SharedMem(n, f, 1),
		"SnapshotChain":       SnapshotChain(n, f, 1),
		"OrderedBlocks":       OrderedBlocks(n, 1),
		"NoMutualMissOracle":  NoMutualMissOracle(n, f, 1),
		"BSystemOracle":       BSystemOracle(n, 1, f, 1),
		"KSetUncertainty":     KSetUncertainty(n, k, 1),
		"Identical":           Identical(n, 1),
		"EventuallySpare":     EventuallySpare(n, f, 3, 0, 1),
		"SpareNeverSuspected": SpareNeverSuspected(n, 0, 1),
	} {
		active := core.FullSet(n)
		r := 0
		plan := func() {
			r++
			active.DiffInto(oracle.Plan(r, active).Crashes)
		}
		plan()
		if a := testing.AllocsPerRun(100, plan); a != 0 {
			t.Errorf("%s: Plan allocates %v objects a round after round 1, want 0", name, a)
		}
	}
}
