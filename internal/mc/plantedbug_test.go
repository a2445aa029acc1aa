package mc_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/mc"
)

// kSetSpec binds the quorum-gated k-set algorithm over the eq. (3)
// per-round-budget adversary for a 3-process, f=1 (k=2) instance.
func kSetSpec(t *testing.T, factory core.Factory) mc.RunSpec {
	t.Helper()
	enum, err := hoalg.PerRound(1).CompileEnum(3)
	if err != nil {
		t.Fatal(err)
	}
	return mc.RunSpec{
		N:       3,
		Inputs:  []core.Value{0, 1, 2},
		Factory: factory,
		Oracle: func(ctx *mc.Ctx) core.Oracle {
			return adversary.Enumerated(ctx, 3, enum)
		},
		Props: []mc.Property{
			mc.Validity([]core.Value{0, 1, 2}),
			mc.KAgreement(2),
		},
		Mark: true,
	}
}

// TestHonestQuorumKSetVerified: the correct quorum comparison survives
// exhaustive exploration of every eq. (3) adversary schedule.
func TestHonestQuorumKSetVerified(t *testing.T) {
	res, err := mc.Explore(mc.Options{}, mc.CheckRun(kSetSpec(t, agreement.QuorumKSet(1))))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("honest algorithm has a counterexample: %v", res.Counterexample)
	}
	if !res.Exhausted {
		t.Fatalf("exploration not exhausted: %+v", res)
	}
	// Every process decides in round 1, so the choice tree is one node
	// wide: the 27 per-round-budget plans for n=3, f=1.
	if res.Schedules != 27 {
		t.Fatalf("schedules = %d, want 27", res.Schedules)
	}
}

// TestPlantedQuorumBugFound: the wrong-quorum-size variant is caught,
// and the counterexample shrinks to a single minimal choice with a
// stable replay string — identically at every worker count.
func TestPlantedQuorumBugFound(t *testing.T) {
	var results []*mc.Result
	for _, w := range []int{1, 4, 8} {
		res, err := mc.Explore(mc.Options{Workers: w},
			mc.CheckRun(kSetSpec(t, agreement.QuorumKSetBuggy(1))))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i, res := range results[1:] {
		if !reflect.DeepEqual(results[0], res) {
			t.Fatalf("workers run %d differs:\n%+v\nvs\n%+v", i+1, results[0], res)
		}
	}

	cx := results[0].Counterexample
	if cx == nil {
		t.Fatal("planted bug not found")
	}
	var pe *mc.PropertyError
	if !errors.As(cx.Err, &pe) || pe.Name != "2-agreement" {
		t.Fatalf("violation = %v, want a 2-agreement PropertyError", cx.Err)
	}
	if len(cx.Choices) != 1 {
		t.Fatalf("shrunk counterexample %v, want a single choice", cx.Choices)
	}
	// Replay string is the stable external form; parse and re-run it.
	replay := mc.FormatChoices(cx.Choices)
	choices, err := mc.ParseChoices(replay)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Replay(choices, mc.CheckRun(kSetSpec(t, agreement.QuorumKSetBuggy(1)))); err == nil {
		t.Fatalf("replay of %q does not reproduce the violation", replay)
	}
	// The honest algorithm passes the exact same schedule: the bug is in
	// the algorithm, not the adversary.
	if err := mc.Replay(choices, mc.CheckRun(kSetSpec(t, agreement.QuorumKSet(1)))); err != nil {
		t.Fatalf("honest algorithm fails the counterexample schedule: %v", err)
	}
}

// TestShrinkIsMinimal: lowering or truncating the shrunk counterexample
// must make the violation disappear (local minimality).
func TestShrinkIsMinimal(t *testing.T) {
	run := mc.CheckRun(kSetSpec(t, agreement.QuorumKSetBuggy(1)))
	res, err := mc.Explore(mc.Options{}, run)
	if err != nil {
		t.Fatal(err)
	}
	cx := res.Counterexample
	if cx == nil {
		t.Fatal("planted bug not found")
	}
	for i := range cx.Choices {
		for v := 0; v < cx.Choices[i]; v++ {
			lowered := append([]int{}, cx.Choices...)
			lowered[i] = v
			if err := mc.Replay(lowered, run); err != nil {
				t.Fatalf("lowering choice %d to %d still violates: not minimal", i, v)
			}
		}
	}
	if len(cx.Choices) > 0 {
		truncated := cx.Choices[:len(cx.Choices)-1]
		if err := mc.Replay(truncated, run); err != nil {
			t.Fatalf("truncated counterexample still violates: not minimal")
		}
	}
}

// TestFloodMinUnderSendOmission: FloodMin with 3 rounds over the eq. (1)
// send-omission enumeration satisfies 2-agreement for f=1, and the
// fingerprint-based pruning fires (suspicion patterns converge) without
// changing the verdict.
func TestFloodMinUnderSendOmission(t *testing.T) {
	enum, err := hoalg.SendOmission(1).CompileEnum(3)
	if err != nil {
		t.Fatal(err)
	}
	spec := mc.RunSpec{
		N:       3,
		Inputs:  []core.Value{0, 1, 2},
		Factory: agreement.FloodMin(3),
		Oracle: func(ctx *mc.Ctx) core.Oracle {
			return adversary.Enumerated(ctx, 3, enum)
		},
		Props: []mc.Property{
			mc.Validity([]core.Value{0, 1, 2}),
			mc.KAgreement(2),
		},
		Mark: true,
	}
	pruned, err := mc.Explore(mc.Options{}, mc.CheckRun(spec))
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Counterexample != nil {
		t.Fatalf("FloodMin(3) violated under send-omission f=1: %v", pruned.Counterexample)
	}
	if !pruned.Exhausted {
		t.Fatal("exploration not exhausted")
	}
	if pruned.Pruned == 0 {
		t.Fatal("expected state-hash pruning to fire on converging suspicion patterns")
	}

	full, err := mc.Explore(mc.Options{NoPrune: true}, mc.CheckRun(spec))
	if err != nil {
		t.Fatal(err)
	}
	if full.Counterexample != nil || !full.Exhausted {
		t.Fatalf("unpruned run disagrees: %+v", full)
	}
	if full.Schedules <= pruned.Schedules-pruned.Pruned {
		t.Fatalf("pruning saved nothing: %d pruned-run schedules (%d pruned) vs %d full",
			pruned.Schedules, pruned.Pruned, full.Schedules)
	}
}

// TestEnumeratedStaysInModel: every schedule the per-round-budget
// enumeration generates satisfies the eq. (3) predicate it implements —
// checked by exploring with the trace predicate as the property.
func TestEnumeratedStaysInModel(t *testing.T) {
	spec := kSetSpec(t, agreement.QuorumKSet(1))
	spec.Mark = false // trace predicates are path-dependent: no pruning
	spec.Props = append(spec.Props, mc.TraceSatisfies(hoalg.PerRound(1).Compile()))
	res, err := mc.Explore(mc.Options{}, mc.CheckRun(spec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("enumerated adversary left its model: %v", res.Counterexample)
	}
}
