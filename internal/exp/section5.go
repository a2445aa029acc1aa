package exp

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/predicate"
	"repro/internal/semisync"
)

// Exhaustive-proof spaces are enumerated with predicate.ExhaustiveImplies;
// see that function for the size arithmetic.

// E14SemiSync validates Theorem 5.1 and produces the paper's headline
// series: consensus steps-per-process in the semi-synchronous model — the
// 2-step algorithm (via the eq. (5) detector) against the 2n-step baseline.
func E14SemiSync(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "semi-synchronous consensus: 2 steps vs 2n steps",
		Ref:     "§5, Theorem 5.1",
		Columns: []string{"n", "seeds", "eq5", "2-step alg", "2n-step baseline", "speedup"},
	}
	seeds := seedsFor(quick, 25)
	sizes := []int{2, 4, 8, 16, 32, 64}
	if quick {
		sizes = []int{2, 4, 8, 16}
	}
	for _, n := range sizes {
		inputs := identityInputs(n)
		eq5OK := true
		fastSteps := 0
		for seed := 0; seed < seeds; seed++ {
			out, err := semisync.RunTwoStep(n, 2, semisync.Config{Chooser: semisync.Seeded(int64(seed))}, inputs)
			if err != nil {
				return nil, err
			}
			if predicate.IdenticalSuspects().Check(out.Trace) != nil {
				eq5OK = false
			}
			if s := out.Outcome.MaxDecisionSteps(); s > fastSteps {
				fastSteps = s
			}
		}
		slow, err := semisync.Run(n, semisync.Config{Chooser: semisync.RoundRobin()},
			semisync.RelayFactory(), inputs)
		if err != nil {
			return nil, err
		}
		slowSteps := slow.MaxDecisionSteps()
		t.AddRow(n, seeds, verdict(eq5OK), fastSteps, slowSteps,
			fmt.Sprintf("%.0fx", float64(slowSteps)/float64(fastSteps)))
	}
	t.AddNote("the 2-step algorithm implements eq. (5) — the k=1 detector — and decides by Theorem 3.1")
	t.AddNote("baseline is the faithful-in-spirit 2n-step substitute for the DDS algorithm (see DESIGN.md)")
	return t, nil
}

// E15Lattice validates the submodel relations §2 sets up: which predicates
// imply which, and which are separated by concrete executions.
func E15Lattice(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "the RRFD submodel lattice",
		Ref:     "§2 framing, §3, §5",
		Columns: []string{"relation", "generator", "trials", "verdict"},
	}
	trials := seedsFor(quick, 60)
	n := 8

	type implication struct {
		name string
		gen  predicate.TraceGen
		a, b predicate.P
	}
	genFor := func(mk func(seed int64) core.Oracle, rounds int) predicate.TraceGen {
		return func(seed int64) (*core.Trace, error) {
			return core.CollectTrace(n, rounds, mk(seed))
		}
	}
	implications := []implication{
		{
			name: "crash(f) ⇒ omission(f)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.Crash(n, 3, s) }, 10),
			a:    predicate.SyncCrash(3), b: predicate.SendOmission(3),
		},
		{
			name: "snapshot(f) ⇒ shared-memory(f)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.SnapshotChain(n, 3, s) }, 8),
			a:    predicate.AtomicSnapshot(3), b: predicate.SharedMemory(3),
		},
		{
			name: "shared-memory(f) ⇒ async-mp(f)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.SharedMem(n, 4, s) }, 8),
			a:    predicate.SharedMemory(4), b: predicate.PerRoundBudget(4),
		},
		{
			name: "snapshot(k−1) ⇒ k-set-detector(k), k=3",
			gen:  genFor(func(s int64) core.Oracle { return adversary.SnapshotChain(n, 2, s) }, 8),
			a:    predicate.AtomicSnapshot(2), b: predicate.KSetDetector(3),
		},
		{
			name: "eq5 ⇒ k-set-detector(1)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.Identical(n, s) }, 8),
			a:    predicate.IdenticalSuspects(), b: predicate.KSetDetector(1),
		},
		{
			name: "never-suspected ⇔ budget(n−1) (→)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.SpareNeverSuspected(n, core.PID(s)%core.PID(n), s) }, 8),
			a:    predicate.NeverSuspectedExists(), b: predicate.TotalSuspectBudget(n - 1),
		},
		{
			name: "never-suspected ⇔ budget(n−1) (←)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.SpareNeverSuspected(n, core.PID(s)%core.PID(n), s) }, 8),
			a:    predicate.TotalSuspectBudget(n - 1), b: predicate.NeverSuspectedExists(),
		},
	}
	for _, im := range implications {
		err := predicate.Implies(im.gen, im.a, im.b, trials)
		t.AddRow(im.name, "adversarial", trials, verdict(err == nil))
	}

	type separation struct {
		name string
		gen  predicate.TraceGen
		a, b predicate.P
	}
	separations := []separation{
		{
			name: "async-mp(f) ⇏ shared-memory (2f ≥ n partitions)",
			gen: func(seed int64) (*core.Trace, error) {
				out, err := msgnet.RunRounds(2, 1, 3, msgnet.Config{Chooser: msgnet.Seeded(seed)}, nil)
				if err != nil {
					return nil, err
				}
				return out.Trace, nil
			},
			a: predicate.PerRoundBudget(1), b: predicate.SomeoneSeenByAll(),
		},
		{
			name: "no-mutual-miss ⇏ eq.(4) (miss cycles)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.NoMutualMissOracle(n, 3, s) }, 8),
			a:    predicate.NoMutualMiss(), b: predicate.SomeoneSeenByAll(),
		},
		{
			name: "B(f,t) ⇏ async-mp(f) (A strict submodel of B)",
			gen: func(seed int64) (*core.Trace, error) {
				return core.CollectTrace(9, 8, adversary.BSystemOracle(9, 2, 4, seed))
			},
			a: predicate.BSystem(2, 4), b: predicate.PerRoundBudget(2),
		},
		{
			name: "omission(f) ⇏ crash propagation",
			gen:  genFor(func(s int64) core.Oracle { return adversary.Omission(n, 3, 0.6, s) }, 10),
			a:    predicate.SendOmission(3), b: predicate.SuspicionPropagates(),
		},
	}
	for _, sp := range separations {
		_, err := predicate.Separates(sp.gen, sp.a, sp.b, 250)
		t.AddRow(sp.name, "witness search", 250, verdict(err == nil))
	}

	// Exhaustive PROOFS over tiny universes: every trace of the space is
	// enumerated, so a pass is a theorem for that universe, not a sample.
	type proof struct {
		name      string
		n, rounds int
		a, b      predicate.P
	}
	proofs := []proof{
		{"snapshot(1) ⇒ shared-memory(1) [proof]", 3, 1, predicate.AtomicSnapshot(1), predicate.SharedMemory(1)},
		{"shared-memory(1) ⇒ async-mp(1) [proof]", 3, 1, predicate.SharedMemory(1), predicate.PerRoundBudget(1)},
		{"eq5 ⇒ k-set-detector(1) [proof]", 3, 1, predicate.IdenticalSuspects(), predicate.KSetDetector(1)},
		{"snapshot(k−1) ⇒ k-set-detector(k), k=2 [proof]", 3, 1, predicate.AtomicSnapshot(1), predicate.KSetDetector(2)},
		{"crash(2) ⇒ omission(2) [proof]", 3, 2, predicate.SyncCrash(2), predicate.SendOmission(2)},
	}
	for _, p := range proofs {
		if quick && p.rounds > 1 {
			continue // the 117k-trace space is full-mode only
		}
		checked, satisfying, err := predicate.ExhaustiveImplies(p.n, p.rounds, p.a, p.b)
		t.AddRow(p.name, fmt.Sprintf("exhaustive n=%d r=%d", p.n, p.rounds), checked,
			verdict(err == nil && satisfying > 0))
	}
	// Exact separation census: the miss-cycle observation of §2 item 4.
	checked, witnesses, err := predicate.ExhaustiveWitnesses(3, 1,
		predicate.And("nmm+eq3", predicate.PerRoundBudget(1), predicate.NoMutualMiss()),
		predicate.SomeoneSeenByAll())
	if err != nil {
		return nil, err
	}
	t.AddRow("no-mutual-miss ⇏ eq.(4) [census]", "exhaustive n=3 r=1", checked,
		verdict(witnesses == 2))
	t.AddNote("the census finds exactly 2 witnesses — the two orientations of the 3-cycle the paper describes")
	return t, nil
}
