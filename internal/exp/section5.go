package exp

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hoalg"
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
	eq5 := hoalg.Identical().Compile()
	for _, n := range sizes {
		inputs := identityInputs(n)
		eq5OK := true
		fastSteps := 0
		for seed := 0; seed < seeds; seed++ {
			out, err := semisync.RunTwoStep(n, 2, semisync.Config{Chooser: core.Seeded(int64(seed))}, inputs)
			if err != nil {
				return nil, err
			}
			if !eq5.Holds(out.Trace) {
				eq5OK = false
			}
			if s := out.Outcome.MaxDecisionSteps(); s > fastSteps {
				fastSteps = s
			}
		}
		slow, err := semisync.Run(n, semisync.Config{Chooser: core.RoundRobin()},
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

	type relation struct {
		name string
		gen  predicate.TraceGen
		a, b *hoalg.Expr
	}
	genFor := func(mk func(seed int64) core.Oracle, rounds int) predicate.TraceGen {
		return func(seed int64) (*core.Trace, error) {
			return core.CollectTrace(n, rounds, mk(seed))
		}
	}
	implications := []relation{
		{
			name: "crash(f) ⇒ omission(f)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.Crash(n, 3, s) }, 10),
			a:    hoalg.SyncCrash(3), b: hoalg.SendOmission(3),
		},
		{
			name: "snapshot(f) ⇒ shared-memory(f)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.SnapshotChain(n, 3, s) }, 8),
			a:    hoalg.AtomicSnapshot(3), b: hoalg.SharedMemory(3),
		},
		{
			name: "shared-memory(f) ⇒ async-mp(f)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.SharedMem(n, 4, s) }, 8),
			a:    hoalg.SharedMemory(4), b: hoalg.PerRound(4),
		},
		{
			name: "snapshot(k−1) ⇒ k-set-detector(k), k=3",
			gen:  genFor(func(s int64) core.Oracle { return adversary.SnapshotChain(n, 2, s) }, 8),
			a:    hoalg.AtomicSnapshot(2), b: hoalg.KSetEq3(3),
		},
		{
			name: "eq5 ⇒ k-set-detector(1)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.Identical(n, s) }, 8),
			a:    hoalg.Identical(), b: hoalg.KSetEq3(1),
		},
		{
			name: "never-suspected ⇔ budget(n−1) (→)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.SpareNeverSuspected(n, core.PID(s)%core.PID(n), s) }, 8),
			a:    hoalg.NeverSuspected(), b: hoalg.AtMostSuspected(n - 1),
		},
		{
			name: "never-suspected ⇔ budget(n−1) (←)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.SpareNeverSuspected(n, core.PID(s)%core.PID(n), s) }, 8),
			a:    hoalg.AtMostSuspected(n - 1), b: hoalg.NeverSuspected(),
		},
	}
	for _, im := range implications {
		err := predicate.Implies(im.gen, im.a.Compile(), im.b.Compile(), trials)
		t.AddRow(im.name, "adversarial", trials, verdict(err == nil))
	}

	separations := []relation{
		{
			name: "async-mp(f) ⇏ shared-memory (2f ≥ n partitions)",
			gen: func(seed int64) (*core.Trace, error) {
				out, err := msgnet.RunRounds(2, 1, 3, msgnet.Config{Chooser: core.Seeded(seed)}, nil)
				if err != nil {
					return nil, err
				}
				return out.Trace, nil
			},
			a: hoalg.PerRound(1), b: hoalg.SomeoneSeen(),
		},
		{
			name: "no-mutual-miss ⇏ eq.(4) (miss cycles)",
			gen:  genFor(func(s int64) core.Oracle { return adversary.NoMutualMissOracle(n, 3, s) }, 8),
			a:    hoalg.NoMutualMiss(), b: hoalg.SomeoneSeen(),
		},
		{
			name: "B(f,t) ⇏ async-mp(f) (A strict submodel of B)",
			gen: func(seed int64) (*core.Trace, error) {
				return core.CollectTrace(9, 8, adversary.BSystemOracle(9, 2, 4, seed))
			},
			a: hoalg.BSys(2, 4), b: hoalg.PerRound(2),
		},
		{
			name: "omission(f) ⇏ crash propagation",
			gen:  genFor(func(s int64) core.Oracle { return adversary.Omission(n, 3, 0.6, s) }, 10),
			a:    hoalg.SendOmission(3), b: hoalg.Propagates(),
		},
	}
	for _, sp := range separations {
		_, err := predicate.Separates(sp.gen, sp.a.Compile(), sp.b.Compile(), 250)
		t.AddRow(sp.name, "witness search", 250, verdict(err == nil))
	}

	// Exhaustive PROOFS over tiny universes: every trace of the space is
	// enumerated, so a pass is a theorem for that universe, not a sample.
	type proof struct {
		name      string
		n, rounds int
		a, b      *hoalg.Expr
	}
	proofs := []proof{
		{"snapshot(1) ⇒ shared-memory(1) [proof]", 3, 1, hoalg.AtomicSnapshot(1), hoalg.SharedMemory(1)},
		{"shared-memory(1) ⇒ async-mp(1) [proof]", 3, 1, hoalg.SharedMemory(1), hoalg.PerRound(1)},
		{"eq5 ⇒ k-set-detector(1) [proof]", 3, 1, hoalg.Identical(), hoalg.KSetEq3(1)},
		{"snapshot(k−1) ⇒ k-set-detector(k), k=2 [proof]", 3, 1, hoalg.AtomicSnapshot(1), hoalg.KSetEq3(2)},
		{"crash(2) ⇒ omission(2) [proof]", 3, 2, hoalg.SyncCrash(2), hoalg.SendOmission(2)},
	}
	for _, p := range proofs {
		if quick && p.rounds > 1 {
			continue // the 117k-trace space is full-mode only
		}
		checked, satisfying, err := predicate.ExhaustiveImplies(p.n, p.rounds, p.a.Compile(), p.b.Compile())
		t.AddRow(p.name, fmt.Sprintf("exhaustive n=%d r=%d", p.n, p.rounds), checked,
			verdict(err == nil && satisfying > 0))
	}
	// Exact separation census: the miss-cycle observation of §2 item 4.
	_, witnesses, err := predicate.ExhaustiveWitnesses(3, 1,
		hoalg.And(hoalg.PerRound(1), hoalg.NoMutualMiss()).Compile(), hoalg.SomeoneSeen().Compile())
	if err != nil {
		return nil, err
	}
	t.AddRow("no-mutual-miss ⇏ eq.(4) [census]", "exhaustive n=3 r=1", 343, // 7^3 traces
		verdict(witnesses == 2))
	t.AddNote("the census finds exactly 2 witnesses — the two orientations of the 3-cycle the paper describes")
	return t, nil
}
