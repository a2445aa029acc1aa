package rrfd_test

// Integration tests for the extensions: views, immediate snapshots,
// the ABD register, tasks, phased consensus, and exhaustive machinery.

import (
	"testing"

	"repro/internal/abd"
	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/immediate"
	"repro/internal/msgnet"
	"repro/internal/predicate"
	"repro/internal/simulate"
	"repro/internal/swmr"
	"repro/internal/task"
	"repro/internal/view"
)

func TestPublicAPIFullInformation(t *testing.T) {
	n := 5
	hist, _, err := view.RunHistory(n, 4, identityInputs(n), adversary.AsyncBudget(n, 2, true, 3))
	if err != nil {
		t.Fatal(err)
	}
	for p := core.PID(0); int(p) < n; p++ {
		log, err := view.ReconstructFIFO(p, hist[p])
		if err != nil {
			t.Fatal(err)
		}
		if err := view.CheckFIFO(log); err != nil {
			t.Fatal(err)
		}
	}
	views, _, err := view.Run(n, 2, identityInputs(n), adversary.SharedMem(n, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if view.KnownByAll(n, views).Empty() {
		t.Fatal("eq4 for two rounds must make someone known by all")
	}
	em, err := view.EmulateWrite(n, 0, hist)
	if err != nil {
		t.Fatal(err)
	}
	if em.CompleteRound == 0 && em.VisibleRound == 0 {
		t.Log("write incomplete under pure eq3 — allowed")
	}
}

func TestPublicAPIImmediateSnapshot(t *testing.T) {
	n := 4
	out, err := immediate.RunRounds(n, 2, swmr.Config{Chooser: swmr.Seeded(5)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := predicate.ImmediateSnapshot(n).Check(out.Trace); err != nil {
		t.Fatal(err)
	}
	tr, err := core.CollectTrace(n, 3, adversary.OrderedBlocks(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := predicate.Immediacy().Check(tr); err != nil {
		t.Fatal(err)
	}
	// The one-shot object.
	res, err := swmr.Run(n, swmr.Config{Chooser: swmr.Seeded(6)},
		func(p *swmr.Proc) (core.Value, error) {
			v, err := immediate.New(p, "x").Participate(int(p.Me))
			if err != nil {
				return nil, err
			}
			return v, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	views := make(map[core.PID]*immediate.View, n)
	for pid, v := range res.Values {
		views[pid] = v.(*immediate.View)
	}
	if err := immediate.CheckViews(n, views); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIABDRegister(t *testing.T) {
	out, err := abd.Run(3, 1, msgnet.Config{Chooser: core.Seeded(4)},
		func(r *abd.Register) error {
			if r.Writer() {
				return r.Write("v1")
			}
			_, err := r.Read()
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := abd.CheckAtomic(out.Log); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPITasks(t *testing.T) {
	n, k := 8, 2
	rep, err := task.Solves(task.KSetAgreement(k), n, identityInputs(n), agreement.OneRoundKSet(),
		predicate.KSetDetector(k),
		func(seed int64) core.Oracle { return adversary.KSetUncertainty(n, k, seed) }, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRounds != 1 {
		t.Fatalf("MaxRounds = %d", rep.MaxRounds)
	}
	if task.Consensus().Name() != "consensus" {
		t.Fatal("task naming broken")
	}
	if err := task.AdoptCommit().Check(task.Assignment{
		Inputs: identityInputs(2),
		Outputs: map[core.PID]core.Value{
			0: task.GradedValue{Commit: false, Value: 0},
			1: task.GradedValue{Commit: false, Value: 1},
		},
		Crashed: core.NewSet(2),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIPhasedConsensus(t *testing.T) {
	n, f, stab := 5, 2, 3
	res, err := core.Run(n, identityInputs(n), agreement.PhasedConsensus(),
		adversary.EventuallySpare(n, f, stab, 1, 9), core.WithMaxRounds(stab+3*(n+2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := agreement.Validate(res, identityInputs(n), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := predicate.EventuallyNeverSuspected(stab).Check(res.Trace); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExhaustive(t *testing.T) {
	checked, satisfying, err := predicate.ExhaustiveImplies(3, 1, predicate.IdenticalSuspects(), predicate.KSetDetector(1))
	if err != nil {
		t.Fatal(err)
	}
	if checked != 343 || satisfying == 0 {
		t.Fatalf("checked=%d satisfying=%d", checked, satisfying)
	}
	_, witnesses, err := predicate.ExhaustiveWitnesses(3, 1, predicate.PerRoundBudget(1), predicate.SomeoneSeenByAll())
	if err != nil {
		t.Fatal(err)
	}
	if witnesses == 0 {
		t.Fatal("cycle witnesses expected")
	}
	count := 0
	if err := predicate.ExhaustiveTraces(2, 1, func(tr *core.Trace) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 9 {
		t.Fatalf("count = %d", count)
	}
}

func TestPublicAPITraceOracleAndCrashSync(t *testing.T) {
	n, f, k := 4, 2, 2
	res, err := simulate.CrashSync(n, f, k, 1, swmr.Config{Chooser: swmr.Seeded(3)},
		agreement.FloodMin(1), identityInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := predicate.SyncCrash(f).Check(res.Result.Trace); err != nil {
		t.Fatal(err)
	}
	// Replay the simulated trace through the engine.
	replayed, err := core.CollectTrace(n, res.Result.Trace.Len(), core.TraceOracle(res.Result.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Len() != res.Result.Trace.Len() {
		t.Fatal("replay length mismatch")
	}
}

func TestPublicAPIBToA(t *testing.T) {
	base, err := core.CollectTrace(9, 4, adversary.BSystemOracle(9, 2, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulate.BToA(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := predicate.PerRoundBudget(2).Check(sim); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIMiscAdversaries(t *testing.T) {
	n := 6
	for name, oracle := range map[string]core.Oracle{
		"benign":    adversary.Benign(n),
		"nomutual":  adversary.NoMutualMissOracle(n, 2, 1),
		"identical": adversary.Identical(n, 1),
		"chain":     adversary.ChainCrash(n, 2, 1),
		"omission":  adversary.Omission(n, 2, 0.5, 1),
	} {
		if _, err := core.CollectTrace(n, 4, oracle); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
