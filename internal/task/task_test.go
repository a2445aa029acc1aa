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
	task := KSetAgreement(2)
	inputs := identityInputs(4)
	good := Assignment{
		Inputs:  inputs,
		Outputs: map[core.PID]core.Value{0: 1, 1: 1, 2: 3, 3: 3},
		Crashed: core.NewSet(4),
	}
	if err := task.Check(good); err != nil {
		t.Fatal(err)
	}
	tooMany := Assignment{
		Inputs:  inputs,
		Outputs: map[core.PID]core.Value{0: 0, 1: 1, 2: 2, 3: 2},
		Crashed: core.NewSet(4),
	}
	if err := task.Check(tooMany); err == nil || !strings.Contains(err.Error(), "distinct") {
		t.Fatalf("err = %v", err)
	}
	invalid := Assignment{
		Inputs:  inputs,
		Outputs: map[core.PID]core.Value{0: 99, 1: 99, 2: 99, 3: 99},
		Crashed: core.NewSet(4),
	}
	if err := task.Check(invalid); err == nil || !strings.Contains(err.Error(), "not an input") {
		t.Fatalf("err = %v", err)
	}
	missing := Assignment{
		Inputs:  inputs,
		Outputs: map[core.PID]core.Value{0: 0},
		Crashed: core.SetOf(4, 1, 2),
	}
	if err := task.Check(missing); err == nil || !strings.Contains(err.Error(), "did not decide") {
		t.Fatalf("err = %v", err)
	}
	if Consensus().Name() != "consensus" || KSetAgreement(3).Name() != "3-set agreement" {
		t.Fatal("names broken")
	}
}

func TestAdoptCommitCheck(t *testing.T) {
	task := AdoptCommit()
	inputs := []core.Value{7, 7}
	good := Assignment{
		Inputs: inputs,
		Outputs: map[core.PID]core.Value{
			0: GradedValue{Commit: true, Value: 7},
			1: GradedValue{Commit: true, Value: 7},
		},
		Crashed: core.NewSet(2),
	}
	if err := task.Check(good); err != nil {
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
	if err := task.Check(lazy); err == nil {
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
	if err := task.Check(mixed); err == nil {
		t.Fatal("agreement violation undetected")
	}
}

func TestSolvesTheoremThreeOne(t *testing.T) {
	// "The k-set-detector system solves k-set agreement" — the paper's
	// solvability statement, machine-checked end to end.
	n, k := 9, 3
	rep, err := Solves(KSetAgreement(k), n, identityInputs(n), agreement.OneRoundKSet(),
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
	rep, err := Solves(Consensus(), n, identityInputs(n), agreement.RotatingCoordinator(),
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
	_, err := Solves(KSetAgreement(k), n, identityInputs(n), agreement.FloodMin(f/k),
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
	_, err := Solves(Consensus(), n, identityInputs(n), agreement.RotatingCoordinator(),
		hoalg.Identical().Compile(), // the adversary below violates eq5
		func(seed int64) core.Oracle {
			return adversary.SpareNeverSuspected(n, 0, seed)
		},
		20)
	if err == nil || !strings.Contains(err.Error(), "outside the system") {
		t.Fatalf("err = %v", err)
	}
}
