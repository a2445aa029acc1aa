package agreement

import (
	"errors"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hoalg"
)

func TestPhasedConsensusUnderEventualAccuracy(t *testing.T) {
	// Liveness + safety: under budget f (2f < n) with the spare process
	// unsuspected from round stab on, every process decides the same
	// input value within stab + 3(n+1) rounds.
	n, f := 7, 3
	inputs := identityInputs(n)
	for _, stab := range []int{0, 5, 12} {
		for seed := int64(0); seed < 25; seed++ {
			spare := core.PID(seed % int64(n))
			oracle := adversary.EventuallySpare(n, f, stab, spare, seed)
			res, err := core.Run(n, inputs, PhasedConsensus(), oracle,
				core.WithMaxRounds(stab+3*(n+2)))
			if err != nil {
				t.Fatalf("stab=%d seed=%d: %v", stab, seed, err)
			}
			if err := Validate(res, inputs, 1, 0); err != nil {
				t.Fatalf("stab=%d seed=%d: %v", stab, seed, err)
			}
			if err := hoalg.Eventually(stab, hoalg.NeverSuspected()).Compile().Check(res.Trace); err != nil {
				t.Fatalf("stab=%d seed=%d: adversary broke its own contract: %v", stab, seed, err)
			}
		}
	}
}

func TestPhasedConsensusSafetyWithoutLiveness(t *testing.T) {
	// Under a pure eq.(3) adversary (no accuracy at all) the algorithm
	// may never terminate — but any processes that DO decide must agree
	// and decide an input.
	n, f := 7, 3
	inputs := identityInputs(n)
	for seed := int64(0); seed < 40; seed++ {
		res, err := core.Run(n, inputs, PhasedConsensus(),
			adversary.AsyncBudget(n, f, false, seed), core.WithMaxRounds(60))
		if err != nil && !errors.Is(err, core.ErrMaxRounds) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.DistinctOutputs() > 1 {
			t.Fatalf("seed %d: disagreement: %v", seed, res.Outputs)
		}
		valid := make(map[core.Value]bool)
		for _, v := range inputs {
			valid[v] = true
		}
		for p, v := range res.Outputs {
			if !valid[v] {
				t.Fatalf("seed %d: process %d decided non-input %v", seed, p, v)
			}
		}
	}
}

func TestPhasedConsensusBenign(t *testing.T) {
	// Failure-free: decided in the first phase (3 rounds).
	n := 5
	inputs := identityInputs(n)
	res, err := core.Run(n, inputs, PhasedConsensus(), adversary.Benign(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res, inputs, 1, 3); err != nil {
		t.Fatal(err)
	}
	// Unanimity forms at the coordinator (p0) round.
	for p, v := range res.Outputs {
		if v != 0 {
			t.Fatalf("process %d decided %v, want 0", p, v)
		}
	}
}

func TestPhasedConsensusVersusRotatingCoordinator(t *testing.T) {
	// Ablation: under the PERFECT item-6 predicate both algorithms work;
	// under the weaker eventual predicate only the phased one does
	// (RotatingCoordinator decides blindly after n rounds, which is
	// unsafe before stabilization).
	n, f := 6, 2
	inputs := identityInputs(n)
	stab := 3 * n // stabilize well after RotatingCoordinator's horizon
	brokeRotating := false
	for seed := int64(0); seed < 200 && !brokeRotating; seed++ {
		spare := core.PID(seed % int64(n))
		res, err := core.Run(n, inputs, RotatingCoordinator(),
			adversary.EventuallySpare(n, f, stab, spare, seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.DistinctOutputs() > 1 {
			brokeRotating = true
		}
	}
	if !brokeRotating {
		t.Fatal("rotating coordinator never disagreed under eventual accuracy — the separation is untested")
	}
}

func TestEventuallyNeverSuspectedPredicate(t *testing.T) {
	n := 5
	tr, err := core.CollectTrace(n, 10, adversary.EventuallySpare(n, 2, 4, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := hoalg.Eventually(4, hoalg.NeverSuspected()).Compile().Check(tr); err != nil {
		t.Fatal(err)
	}
	// With stab=0 the same trace generally fails (the spare was fair game
	// early); search a seed where it does.
	failed := false
	for seed := int64(0); seed < 50 && !failed; seed++ {
		tr, err := core.CollectTrace(n, 10, adversary.EventuallySpare(n, 3, 6, 2, seed))
		if err != nil {
			t.Fatal(err)
		}
		if hoalg.Eventually(0, hoalg.NeverSuspected()).Compile().Check(tr) != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("no trace violated the stab=0 predicate — adversary too tame")
	}
	// Vacuous case: trace shorter than the horizon.
	short, err := core.CollectTrace(n, 3, adversary.AsyncBudget(n, 2, false, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := hoalg.Eventually(5, hoalg.NeverSuspected()).Compile().Check(short); err != nil {
		t.Fatal(err)
	}
}
