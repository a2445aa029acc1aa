package rrfd_test

// Integration tests for the extension facade: views, immediate snapshots,
// the ABD register, tasks, phased consensus, and exhaustive machinery.

import (
	"testing"

	rrfd "repro"
)

func TestPublicAPIFullInformation(t *testing.T) {
	n := 5
	hist, _, err := rrfd.RunFullInfoHistory(n, 4, identityInputs(n), rrfd.AsyncBudget(n, 2, true, 3))
	if err != nil {
		t.Fatal(err)
	}
	for p := rrfd.PID(0); int(p) < n; p++ {
		log, err := rrfd.ReconstructFIFO(p, hist[p])
		if err != nil {
			t.Fatal(err)
		}
		if err := rrfd.CheckFIFO(log); err != nil {
			t.Fatal(err)
		}
	}
	views, _, err := rrfd.RunFullInfo(n, 2, identityInputs(n), rrfd.SharedMemAdversary(n, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rrfd.KnownByAll(n, views).Empty() {
		t.Fatal("eq4 for two rounds must make someone known by all")
	}
	em, err := rrfd.EmulateWrite(n, 0, hist)
	if err != nil {
		t.Fatal(err)
	}
	if em.CompleteRound == 0 && em.VisibleRound == 0 {
		t.Log("write incomplete under pure eq3 — allowed")
	}
}

func TestPublicAPIImmediateSnapshot(t *testing.T) {
	n := 4
	out, err := rrfd.RunImmediateRounds(n, 2, rrfd.SharedConfig{Chooser: rrfd.SeededChooser(5)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.ImmediateSnapshot(n).Check(out.Trace); err != nil {
		t.Fatal(err)
	}
	tr, err := rrfd.CollectTrace(n, 3, rrfd.OrderedBlocks(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.Immediacy().Check(tr); err != nil {
		t.Fatal(err)
	}
	// The one-shot object through the facade.
	res, err := rrfd.RunShared(n, rrfd.SharedConfig{Chooser: rrfd.SeededChooser(6)},
		func(p *rrfd.SharedProc) (rrfd.Value, error) {
			v, err := rrfd.NewImmediate(p, "x").Participate(int(p.Me))
			if err != nil {
				return nil, err
			}
			return v, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	views := make(map[rrfd.PID]*rrfd.ImmediateView, n)
	for pid, v := range res.Values {
		views[pid] = v.(*rrfd.ImmediateView)
	}
	if err := rrfd.CheckImmediateViews(n, views); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIABDRegister(t *testing.T) {
	out, err := rrfd.RunABD(3, 1, rrfd.NetConfig{Chooser: rrfd.Seeded(4)},
		func(r *rrfd.ABDRegister) error {
			if r.Writer() {
				return r.Write("v1")
			}
			_, err := r.Read()
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.CheckAtomic(out.Log); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPITasks(t *testing.T) {
	n, k := 8, 2
	rep, err := rrfd.Solves(rrfd.KSetAgreementTask(k), n, identityInputs(n), rrfd.OneRoundKSet(),
		rrfd.KSetDetector(k),
		func(seed int64) rrfd.Oracle { return rrfd.KSetUncertainty(n, k, seed) }, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRounds != 1 {
		t.Fatalf("MaxRounds = %d", rep.MaxRounds)
	}
	if rrfd.ConsensusTask().Name() != "consensus" {
		t.Fatal("task naming broken")
	}
	if err := rrfd.AdoptCommitTask().Check(rrfd.TaskAssignment{
		Inputs: identityInputs(2),
		Outputs: map[rrfd.PID]rrfd.Value{
			0: rrfd.GradedValue{Commit: false, Value: 0},
			1: rrfd.GradedValue{Commit: false, Value: 1},
		},
		Crashed: rrfd.NewSet(2),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIPhasedConsensus(t *testing.T) {
	n, f, stab := 5, 2, 3
	res, err := rrfd.Run(n, identityInputs(n), rrfd.PhasedConsensus(),
		rrfd.EventuallySpare(n, f, stab, 1, 9), rrfd.WithMaxRounds(stab+3*(n+2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.ValidateAgreement(res, identityInputs(n), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := rrfd.EventuallyNeverSuspected(stab).Check(res.Trace); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExhaustive(t *testing.T) {
	checked, satisfying, err := rrfd.ExhaustiveImplies(3, 1, rrfd.IdenticalSuspects(), rrfd.KSetDetector(1))
	if err != nil {
		t.Fatal(err)
	}
	if checked != 343 || satisfying == 0 {
		t.Fatalf("checked=%d satisfying=%d", checked, satisfying)
	}
	_, witnesses, err := rrfd.ExhaustiveWitnesses(3, 1, rrfd.PerRoundBudget(1), rrfd.SomeoneSeenByAll())
	if err != nil {
		t.Fatal(err)
	}
	if witnesses == 0 {
		t.Fatal("cycle witnesses expected")
	}
	count := 0
	if err := rrfd.ExhaustiveTraces(2, 1, func(tr *rrfd.Trace) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 9 {
		t.Fatalf("count = %d", count)
	}
}

func TestPublicAPITraceOracleAndCrashSync(t *testing.T) {
	n, f, k := 4, 2, 2
	res, err := rrfd.CrashSync(n, f, k, 1, rrfd.SharedConfig{Chooser: rrfd.SeededChooser(3)},
		rrfd.FloodMin(1), identityInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.SyncCrash(f).Check(res.Result.Trace); err != nil {
		t.Fatal(err)
	}
	// Replay the simulated trace through the engine.
	replayed, err := rrfd.CollectTrace(n, res.Result.Trace.Len(), rrfd.TraceOracle(res.Result.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Len() != res.Result.Trace.Len() {
		t.Fatal("replay length mismatch")
	}
}

func TestPublicAPIBToA(t *testing.T) {
	base, err := rrfd.CollectTrace(9, 4, rrfd.BSystemAdversary(9, 2, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := rrfd.BToA(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rrfd.PerRoundBudget(2).Check(sim); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIMiscAdversaries(t *testing.T) {
	n := 6
	for name, oracle := range map[string]rrfd.Oracle{
		"benign":    rrfd.Benign(n),
		"nomutual":  rrfd.NoMutualMissAdversary(n, 2, 1),
		"identical": rrfd.Identical(n, 1),
		"chain":     rrfd.ChainCrash(n, 2, 1),
		"omission":  rrfd.Omission(n, 2, 0.5, 1),
	} {
		if _, err := rrfd.CollectTrace(n, 4, oracle); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
