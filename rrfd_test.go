package rrfd_test

// Integration tests of the public API: every facade entry point is
// exercised the way README.md documents it.

import (
	"errors"
	"testing"

	rrfd "repro"
)

func TestPublicAPIConsensusUnderS(t *testing.T) {
	n := 5
	inputs := []rrfd.Value{"a", "b", "c", "d", "e"}
	res, err := rrfd.Run(n, inputs, rrfd.RotatingCoordinator(), rrfd.SpareNeverSuspected(n, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.ValidateAgreement(res, inputs, 1, n); err != nil {
		t.Fatal(err)
	}
	if err := rrfd.NeverSuspectedExists().Check(res.Trace); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIOneRoundKSet(t *testing.T) {
	n, k := 10, 3
	inputs := identityInputs(n)
	res, err := rrfd.Run(n, inputs, rrfd.OneRoundKSet(), rrfd.KSetUncertainty(n, k, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.ValidateAgreement(res, inputs, k, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISetAlgebra(t *testing.T) {
	s := rrfd.SetOf(8, 1, 3, 5)
	if s.Count() != 3 || !s.Has(3) || s.Has(2) {
		t.Fatal("set basics broken through facade")
	}
	if !rrfd.FullSet(8).Diff(s).Equal(s.Complement()) {
		t.Fatal("complement identity broken")
	}
	u := rrfd.UnionAll(8, []rrfd.Set{s, rrfd.SetOf(8, 2)})
	if u.Count() != 4 {
		t.Fatal("UnionAll broken")
	}
	if !rrfd.IntersectAll(8, nil).Equal(rrfd.FullSet(8)) {
		t.Fatal("IntersectAll broken")
	}
}

func TestPublicAPICustomAlgorithmAndOracle(t *testing.T) {
	// A user-defined algorithm (max-flooding) under a user-defined
	// oracle, straight through the facade.
	n := 4
	type maxAlg struct {
		est int
	}
	factory := func(me rrfd.PID, n int, input rrfd.Value) rrfd.Algorithm {
		return &maxFlood{est: input.(int)}
	}
	oracle := rrfd.OracleFunc(func(r int, active rrfd.Set) rrfd.RoundPlan {
		sus := make([]rrfd.Set, n)
		for i := range sus {
			sus[i] = rrfd.NewSet(n)
		}
		return rrfd.RoundPlan{Suspects: sus}
	})
	res, err := rrfd.Run(n, identityInputs(n), factory, oracle)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range res.Outputs {
		if v != n-1 {
			t.Fatalf("process %d decided %v, want %d", p, v, n-1)
		}
	}
	_ = maxAlg{}
}

type maxFlood struct {
	est int
}

func (a *maxFlood) Emit(r int) rrfd.Message { return a.est }

func (a *maxFlood) Deliver(r int, msgs map[rrfd.PID]rrfd.Message, suspects rrfd.Set) (rrfd.Value, bool) {
	for _, m := range msgs {
		if v := m.(int); v > a.est {
			a.est = v
		}
	}
	return a.est, r >= 2
}

func TestPublicAPISharedMemoryAndAdoptCommit(t *testing.T) {
	n := 3
	out, err := rrfd.RunShared(n, rrfd.SharedConfig{Chooser: rrfd.SeededChooser(4)},
		func(p *rrfd.SharedProc) (rrfd.Value, error) {
			o, err := rrfd.AdoptCommit(p, "it", "same")
			if err != nil {
				return nil, err
			}
			return o, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for pid, v := range out.Values {
		o := v.(rrfd.AdoptCommitOutcome)
		if o.Grade != rrfd.Commit || o.Value != "same" {
			t.Fatalf("process %d: %+v", pid, o)
		}
	}
}

func TestPublicAPISnapshotObject(t *testing.T) {
	n := 3
	out, err := rrfd.RunShared(n, rrfd.SharedConfig{Chooser: rrfd.SeededChooser(2)},
		func(p *rrfd.SharedProc) (rrfd.Value, error) {
			obj := rrfd.NewSnapshot(p, "o")
			if err := obj.Update(int(p.Me)); err != nil {
				return nil, err
			}
			view, err := obj.Scan()
			if err != nil {
				return nil, err
			}
			return view[p.Me].Value, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for pid, v := range out.Values {
		if v != int(pid) {
			t.Fatalf("process %d scanned own component %v", pid, v)
		}
	}
}

func TestPublicAPIExplore(t *testing.T) {
	res, err := rrfd.MCExplore(rrfd.MCOptions{}, func(ctx *rrfd.MCCtx) error {
		ch := func(_ int, runnable []rrfd.PID) int { return ctx.Choose(len(runnable)) }
		_, err := rrfd.RunShared(2, rrfd.SharedConfig{Chooser: ch},
			func(p *rrfd.SharedProc) (rrfd.Value, error) {
				return nil, p.Write("x", 1)
			})
		return err
	})
	if err != nil || res.Counterexample != nil {
		t.Fatal(err, res.Counterexample)
	}
	if res.Schedules != 2 {
		t.Fatalf("two single-op processes have 2 interleavings, got %d", res.Schedules)
	}
}

func TestPublicAPINetwork(t *testing.T) {
	out, err := rrfd.RunNetworkRounds(4, 1, 3, rrfd.NetConfig{Chooser: rrfd.NetSeeded(5)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.PerRoundBudget(1).Check(out.Trace); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISemiSync(t *testing.T) {
	inputs := identityInputs(6)
	out, err := rrfd.RunTwoStep(6, 1, rrfd.SemiConfig{Chooser: rrfd.SemiSeeded(3)}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Outcome.MaxDecisionSteps(); got != 2 {
		t.Fatalf("decision after %d steps, want 2", got)
	}
	if err := rrfd.IdenticalSuspects().Check(out.Trace); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISimulations(t *testing.T) {
	base, err := rrfd.CollectTrace(7, 6, rrfd.AsyncBudget(7, 3, false, 9))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := rrfd.TwoRoundsToSharedMemory(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.SharedMemory(3).Check(sim); err != nil {
		t.Fatal(err)
	}
	snap, err := rrfd.CollectTrace(8, 4, rrfd.SnapshotChain(8, 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := rrfd.OmissionPrefix(snap, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.SendOmission(4).Check(pre); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDetector(t *testing.T) {
	tr, err := rrfd.CollectTrace(5, 6, rrfd.SpareNeverSuspected(5, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	h := rrfd.DetectorFromTrace(tr)
	if err := h.CheckWeakAccuracy(); err != nil {
		t.Fatal(err)
	}
	res, err := rrfd.Run(5, identityInputs(5), rrfd.RotatingCoordinator(), rrfd.DetectorOracle(h))
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.ValidateAgreement(res, identityInputs(5), 1, 5); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	exps := rrfd.Experiments()
	if len(exps) != 20 { // E01–E15 plus the X01–X05 extensions
		t.Fatalf("got %d experiments, want 20", len(exps))
	}
	table, err := exps[6].Run(true) // E07
	if err != nil {
		t.Fatal(err)
	}
	if table.ID != "E07" {
		t.Fatalf("table.ID = %s", table.ID)
	}
}

func TestPublicAPIImplication(t *testing.T) {
	gen := func(seed int64) (*rrfd.Trace, error) {
		return rrfd.CollectTrace(6, 6, rrfd.Crash(6, 2, seed))
	}
	if err := rrfd.Implies(gen, rrfd.SyncCrash(2), rrfd.SendOmission(2), 20); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRecovery(t *testing.T) {
	// Crash-recovery round protocol + audit through the facade.
	out, err := rrfd.RecoveryRun(5, 1, 4, rrfd.RecoveryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.RecoveryAudit(out, 5, 1, 4); err != nil {
		t.Fatal(err)
	}

	// Checkpointed engine run: kill at a round boundary, resume, finish.
	dir := t.TempDir() + "/ck"
	n := 5
	inputs := []rrfd.Value{"a", "b", "c", "d", "e"}
	oracle := func() rrfd.Oracle { return rrfd.SpareNeverSuspected(n, 2, 7) }
	_, err = rrfd.Run(n, inputs, rrfd.RotatingCoordinator(), oracle(),
		rrfd.WithCheckpointing(dir, rrfd.CheckpointOptions{Sync: rrfd.SyncAlways}),
		rrfd.WithHaltAfterRound(1))
	var halt *rrfd.HaltError
	if !errors.As(err, &halt) {
		t.Fatalf("want *HaltError, got %v", err)
	}
	res, err := rrfd.Resume(dir, rrfd.RotatingCoordinator(), oracle())
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.ValidateAgreement(res, inputs, 1, n); err != nil {
		t.Fatal(err)
	}
}
