package task_test

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/hoalg"
	. "repro/internal/task"
)

func identityInputs(n int) []core.Value {
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	return inputs
}

func TestKSetCheck(t *testing.T) {
	inputs := identityInputs(4)
	check := func(out map[core.PID]core.Value, crashed core.Set) error {
		return KSet(2, Inputs(inputs), len(inputs), ByPID(out).At, In(crashed)).Err()
	}
	if err := check(map[core.PID]core.Value{0: 1, 1: 1, 2: 3, 3: 3}, core.NewSet(4)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		out     map[core.PID]core.Value
		crashed core.Set
		want    string
	}{
		{map[core.PID]core.Value{0: 0, 1: 1, 2: 2, 3: 2}, core.NewSet(4), "3 distinct decisions [0 1 2] exceed k=2"},
		{map[core.PID]core.Value{0: 99, 1: 99, 2: 99, 3: 99}, core.NewSet(4), "decided 99, not an input"},
		{map[core.PID]core.Value{0: 0}, core.SetOf(4, 1, 2), "did not decide"},
	} {
		if err := check(c.out, c.crashed); err == nil || err.Error() != c.want {
			t.Fatalf("outputs %v: err = %v, want %s", c.out, err, c.want)
		}
	}
}

func TestAdoptCommitCheck(t *testing.T) {
	inputs := []core.Value{7, 7}
	good := Assignment{
		Inputs: inputs,
		Outputs: map[core.PID]core.Value{
			0: GradedValue{Commit: true, Value: 7},
			1: GradedValue{Commit: true, Value: 7},
		},
		Crashed: core.NewSet(2),
	}
	if err := AdoptCommit(good); err != nil {
		t.Fatal(err)
	}
	// Unanimous input but an adopt output: convergence violated.
	lazy := Assignment{
		Inputs: inputs,
		Outputs: map[core.PID]core.Value{
			0: GradedValue{Commit: true, Value: 7},
			1: GradedValue{Commit: false, Value: 7},
		},
		Crashed: core.NewSet(2),
	}
	if err := AdoptCommit(lazy); err == nil {
		t.Fatal("convergence violation undetected")
	}
	// Commit with a dissenting value: agreement violated.
	mixed := Assignment{
		Inputs: []core.Value{1, 2},
		Outputs: map[core.PID]core.Value{
			0: GradedValue{Commit: true, Value: 1},
			1: GradedValue{Commit: false, Value: 2},
		},
		Crashed: core.NewSet(2),
	}
	if err := AdoptCommit(mixed); err == nil {
		t.Fatal("agreement violation undetected")
	}
}

func TestSolvesTheoremThreeOne(t *testing.T) {
	// "The k-set-detector system solves k-set agreement" — the paper's
	// solvability statement, machine-checked end to end.
	n, k := 9, 3
	rep, err := Solves(k, n, identityInputs(n), agreement.OneRoundKSet(),
		hoalg.KSetEq3(k).Compile(),
		func(seed int64) core.Oracle { return adversary.KSetUncertainty(n, k, seed) },
		40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRounds != 1 {
		t.Fatalf("MaxRounds = %d, want 1", rep.MaxRounds)
	}
}

func TestSolvesConsensusUnderS(t *testing.T) {
	n := 6
	rep, err := Solves(1, n, identityInputs(n), agreement.RotatingCoordinator(),
		hoalg.NeverSuspected().Compile(),
		func(seed int64) core.Oracle {
			return adversary.SpareNeverSuspected(n, core.PID(seed%int64(n)), seed)
		},
		30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRounds > n {
		t.Fatalf("MaxRounds = %d, want ≤ n", rep.MaxRounds)
	}
}

func TestSolvesRejectsWrongAlgorithm(t *testing.T) {
	// FloodMin truncated below the bound does NOT solve k-set agreement
	// in the crash system — Solves must say so.
	n, f, k := 10, 4, 2
	_, err := Solves(k, n, identityInputs(n), agreement.FloodMin(f/k),
		hoalg.SyncCrash(f).Compile(),
		func(seed int64) core.Oracle { return adversary.ChainCrash(n, f, k) },
		1)
	if err == nil {
		t.Fatal("expected a task violation")
	}
	if !strings.Contains(err.Error(), "distinct") {
		t.Fatalf("err = %v", err)
	}
}

func TestSolvesRejectsBrokenGenerator(t *testing.T) {
	// A generator outside the declared system must be reported as such.
	n := 5
	_, err := Solves(1, n, identityInputs(n), agreement.RotatingCoordinator(),
		hoalg.Identical().Compile(), // the adversary below violates eq5
		func(seed int64) core.Oracle {
			return adversary.SpareNeverSuspected(n, 0, seed)
		},
		20)
	if err == nil || !strings.Contains(err.Error(), "outside the system") {
		t.Fatalf("err = %v", err)
	}
}
