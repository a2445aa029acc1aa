package rrfd_test

// Integration tests across packages: the engine, predicates, adversaries,
// algorithms and substrates, used together the way README.md documents them.

import (
	"errors"
	"testing"

	"repro/internal/adoptcommit"
	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/exp"
	"repro/internal/hoalg"
	"repro/internal/mc"
	"repro/internal/msgnet"
	"repro/internal/predicate"
	"repro/internal/recovery"
	"repro/internal/semisync"
	"repro/internal/simulate"
	"repro/internal/snapshot"
	"repro/internal/swmr"
	"repro/internal/wal"
)

func TestPublicAPIConsensusUnderS(t *testing.T) {
	n := 5
	inputs := []core.Value{"a", "b", "c", "d", "e"}
	res, err := core.Run(n, inputs, agreement.RotatingCoordinator(), adversary.SpareNeverSuspected(n, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := agreement.Validate(res, inputs, 1, n); err != nil {
		t.Fatal(err)
	}
	if err := hoalg.NeverSuspected().Compile().Check(res.Trace); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIOneRoundKSet(t *testing.T) {
	n, k := 10, 3
	inputs := identityInputs(n)
	res, err := core.Run(n, inputs, agreement.OneRoundKSet(), adversary.KSetUncertainty(n, k, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := agreement.Validate(res, inputs, k, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISetAlgebra(t *testing.T) {
	s := core.SetOf(8, 1, 3, 5)
	if s.Count() != 3 || !s.Has(3) || s.Has(2) {
		t.Fatal("set basics broken")
	}
	if !core.FullSet(8).Diff(s).Equal(s.Complement()) {
		t.Fatal("complement identity broken")
	}
	u := core.UnionAll(8, []core.Set{s, core.SetOf(8, 2)})
	if u.Count() != 4 {
		t.Fatal("UnionAll broken")
	}
	if !core.IntersectAll(8, nil).Equal(core.FullSet(8)) {
		t.Fatal("IntersectAll broken")
	}
}

func TestPublicAPICustomAlgorithmAndOracle(t *testing.T) {
	// A user-defined algorithm (max-flooding) under a user-defined
	// oracle.
	n := 4
	type maxAlg struct {
		est int
	}
	factory := func(me core.PID, n int, input core.Value) core.Algorithm {
		return &maxFlood{est: input.(int)}
	}
	oracle := core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := make([]core.Set, n)
		for i := range sus {
			sus[i] = core.NewSet(n)
		}
		return core.RoundPlan{Suspects: sus}
	})
	res, err := core.Run(n, identityInputs(n), factory, oracle)
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

func (a *maxFlood) Emit(r int) core.Message { return a.est }

func (a *maxFlood) Deliver(r int, msgs core.Inbox, suspects core.Set) (core.Value, bool) {
	msgs.ForEach(func(_ core.PID, m core.Message) {
		if v := m.(int); v > a.est {
			a.est = v
		}
	})
	return a.est, r >= 2
}

func TestPublicAPISharedMemoryAndAdoptCommit(t *testing.T) {
	n := 3
	out, err := swmr.Run(n, swmr.Config{Chooser: swmr.Seeded(4)},
		func(p *swmr.Proc) (core.Value, error) {
			o, err := adoptcommit.Run(p, "it", "same")
			if err != nil {
				return nil, err
			}
			return o, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for pid, v := range out.Values {
		o := v.(adoptcommit.Outcome)
		if o.Grade != adoptcommit.Commit || o.Value != "same" {
			t.Fatalf("process %d: %+v", pid, o)
		}
	}
}

func TestPublicAPISnapshotObject(t *testing.T) {
	n := 3
	out, err := swmr.Run(n, swmr.Config{Chooser: swmr.Seeded(2)},
		func(p *swmr.Proc) (core.Value, error) {
			obj := snapshot.New(p, "o")
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
	res, err := mc.Explore(mc.Options{}, func(ctx *mc.Ctx) error {
		ch := ctx.Pick
		_, err := swmr.Run(2, swmr.Config{Chooser: ch},
			func(p *swmr.Proc) (core.Value, error) {
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
	out, err := msgnet.RunRounds(4, 1, 3, msgnet.Config{Chooser: core.Seeded(5)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hoalg.PerRound(1).Compile().Check(out.Trace); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISemiSync(t *testing.T) {
	inputs := identityInputs(6)
	out, err := semisync.RunTwoStep(6, 1, semisync.Config{Chooser: core.Seeded(3)}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Outcome.MaxDecisionSteps(); got != 2 {
		t.Fatalf("decision after %d steps, want 2", got)
	}
	if err := hoalg.Identical().Compile().Check(out.Trace); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISimulations(t *testing.T) {
	base, err := core.CollectTrace(7, 6, adversary.AsyncBudget(7, 3, false, 9))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulate.TwoRoundsToSharedMemory(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := hoalg.SharedMemory(3).Compile().Check(sim); err != nil {
		t.Fatal(err)
	}
	snap, err := core.CollectTrace(8, 4, adversary.SnapshotChain(8, 2, 9))
	if err != nil {
		t.Fatal(err)
	}
	pre, err := simulate.OmissionPrefix(snap, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := hoalg.SendOmission(4).Compile().Check(pre); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDetector(t *testing.T) {
	tr, err := core.CollectTrace(5, 6, adversary.SpareNeverSuspected(5, 1, 8))
	if err != nil {
		t.Fatal(err)
	}
	h := detector.FromTrace(tr)
	if err := h.CheckWeakAccuracy(); err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(5, identityInputs(5), agreement.RotatingCoordinator(), detector.Oracle(h))
	if err != nil {
		t.Fatal(err)
	}
	if err := agreement.Validate(res, identityInputs(5), 1, 5); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	exps := exp.All()
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
	gen := func(seed int64) (*core.Trace, error) {
		return core.CollectTrace(6, 6, adversary.Crash(6, 2, seed))
	}
	if err := predicate.Implies(gen, hoalg.SyncCrash(2).Compile(), hoalg.SendOmission(2).Compile(), 20); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRecovery(t *testing.T) {
	// Crash-recovery round protocol + audit.
	out, err := recovery.RunRounds(5, 1, 4, recovery.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := recovery.Audit(out, 5, 1, 4); err != nil {
		t.Fatal(err)
	}

	// Checkpointed engine run: kill at a round boundary, resume, finish.
	dir := t.TempDir() + "/ck"
	n := 5
	inputs := []core.Value{"a", "b", "c", "d", "e"}
	oracle := func() core.Oracle { return adversary.SpareNeverSuspected(n, 2, 7) }
	_, err = core.Run(n, inputs, agreement.RotatingCoordinator(), oracle(),
		core.WithCheckpointing(dir, core.CheckpointOptions{Sync: wal.SyncAlways}),
		core.WithHaltAfterRound(1))
	var halt *core.HaltError
	if !errors.As(err, &halt) {
		t.Fatalf("want *HaltError, got %v", err)
	}
	res, err := core.Resume(dir, agreement.RotatingCoordinator(), oracle())
	if err != nil {
		t.Fatal(err)
	}
	if err := agreement.Validate(res, inputs, 1, n); err != nil {
		t.Fatal(err)
	}
}
