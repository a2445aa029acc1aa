package predicate

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// mkTrace builds a trace over n processes from per-round suspect sets given
// as slices of PID slices. All processes are active every round and
// deliveries are the complement of suspicions.
func mkTrace(n int, rounds ...[][]core.PID) *core.Trace {
	tr := core.NewTrace(n)
	for r, round := range rounds {
		rec := core.RoundRecord{
			R:        r + 1,
			Suspects: make([]core.Set, n),
			Deliver:  make([]core.Set, n),
			Active:   core.FullSet(n),
			Crashed:  core.NewSet(n),
		}
		for i := 0; i < n; i++ {
			rec.Suspects[i] = core.SetOf(n, round[i]...)
			rec.Deliver[i] = rec.Suspects[i].Complement()
		}
		tr.Append(rec)
	}
	return tr
}

func pids(ps ...core.PID) []core.PID { return ps }

func TestSelfTrusting(t *testing.T) {
	good := mkTrace(3, [][]core.PID{pids(1), pids(), pids(0)})
	if err := SelfTrusting().Check(good); err != nil {
		t.Fatal(err)
	}
	bad := mkTrace(3, [][]core.PID{pids(0), pids(), pids()})
	err := SelfTrusting().Check(bad)
	if err == nil {
		t.Fatal("expected self-suspicion violation")
	}
	if !strings.Contains(err.Error(), "suspects itself") {
		t.Fatalf("unhelpful violation message: %v", err)
	}
}

func TestTotalSuspectBudget(t *testing.T) {
	tr := mkTrace(4,
		[][]core.PID{pids(1), pids(), pids(1), pids()},
		[][]core.PID{pids(2), pids(2), pids(), pids()},
	)
	if err := TotalSuspectBudget(2).Check(tr); err != nil {
		t.Fatal(err)
	}
	if err := TotalSuspectBudget(1).Check(tr); err == nil {
		t.Fatal("budget 1 should fail: two distinct processes suspected")
	}
}

func TestSuspicionPropagates(t *testing.T) {
	good := mkTrace(3,
		[][]core.PID{pids(2), pids(), pids()},
		[][]core.PID{pids(2), pids(2), pids(2)},
	)
	if err := SuspicionPropagates().Check(good); err != nil {
		t.Fatal(err)
	}
	bad := mkTrace(3,
		[][]core.PID{pids(2), pids(), pids()},
		[][]core.PID{pids(2), pids(), pids(2)}, // p1 forgot the suspicion
	)
	if err := SuspicionPropagates().Check(bad); err == nil {
		t.Fatal("expected propagation violation")
	}
}

func TestPerRoundBudget(t *testing.T) {
	tr := mkTrace(4, [][]core.PID{pids(1, 2), pids(), pids(3), pids()})
	if err := PerRoundBudget(2).Check(tr); err != nil {
		t.Fatal(err)
	}
	if err := PerRoundBudget(1).Check(tr); err == nil {
		t.Fatal("per-round budget 1 should fail")
	}
}

func TestSomeoneSeenByAll(t *testing.T) {
	good := mkTrace(3, [][]core.PID{pids(1), pids(2), pids(1)})
	if err := SomeoneSeenByAll().Check(good); err != nil {
		t.Fatal(err)
	}
	// 0 suspects 1, 1 suspects 2, 2 suspects 0: everyone suspected.
	bad := mkTrace(3, [][]core.PID{pids(1), pids(2), pids(0)})
	if err := SomeoneSeenByAll().Check(bad); err == nil {
		t.Fatal("cycle should violate eq4")
	}
}

func TestNoMutualMissAndCycleSeparation(t *testing.T) {
	// The paper's point: a miss-cycle satisfies no-mutual-miss but
	// violates eq. (4).
	cycle := mkTrace(3, [][]core.PID{pids(1), pids(2), pids(0)})
	if err := NoMutualMiss().Check(cycle); err != nil {
		t.Fatalf("cycle should satisfy no-mutual-miss: %v", err)
	}
	if err := SomeoneSeenByAll().Check(cycle); err == nil {
		t.Fatal("cycle must violate eq4 — this is the paper's separation example")
	}
	mutual := mkTrace(3, [][]core.PID{pids(1), pids(0), pids()})
	if err := NoMutualMiss().Check(mutual); err == nil {
		t.Fatal("mutual miss should violate the predicate")
	}
}

func TestContainmentChain(t *testing.T) {
	good := mkTrace(4, [][]core.PID{pids(3), pids(2, 3), pids(3), pids()})
	if err := ContainmentChain().Check(good); err != nil {
		t.Fatal(err)
	}
	bad := mkTrace(4, [][]core.PID{pids(1), pids(2), pids(), pids()})
	if err := ContainmentChain().Check(bad); err == nil {
		t.Fatal("incomparable suspect sets should fail the chain predicate")
	}
}

func TestNeverSuspectedExists(t *testing.T) {
	good := mkTrace(3,
		[][]core.PID{pids(1), pids(1), pids(1)},
		[][]core.PID{pids(2), pids(2), pids()},
	)
	if err := NeverSuspectedExists().Check(good); err != nil {
		t.Fatal(err)
	}
	bad := mkTrace(3,
		[][]core.PID{pids(1), pids(0), pids()},
		[][]core.PID{pids(2), pids(), pids()},
	)
	if err := NeverSuspectedExists().Check(bad); err == nil {
		t.Fatal("all processes suspected at some point — predicate must fail")
	}
}

func TestKSetDetector(t *testing.T) {
	// Everyone agrees on {2}, disagreement only on {1}: uncertainty 1.
	tr := mkTrace(4, [][]core.PID{pids(2), pids(1, 2), pids(2), pids(1, 2)})
	if err := KSetDetector(2).Check(tr); err != nil {
		t.Fatal(err)
	}
	if err := KSetDetector(1).Check(tr); err == nil {
		t.Fatal("uncertainty 1 must violate k=1 detector")
	}
	// Perfect agreement: k=1 holds.
	agree := mkTrace(4, [][]core.PID{pids(3), pids(3), pids(3), pids(3)})
	if err := KSetDetector(1).Check(agree); err != nil {
		t.Fatal(err)
	}
}

func TestIdenticalSuspects(t *testing.T) {
	good := mkTrace(3, [][]core.PID{pids(2), pids(2), pids(2)})
	if err := IdenticalSuspects().Check(good); err != nil {
		t.Fatal(err)
	}
	bad := mkTrace(3, [][]core.PID{pids(2), pids(1), pids(2)})
	if err := IdenticalSuspects().Check(bad); err == nil {
		t.Fatal("differing suspect sets must violate eq5")
	}
}

func TestBSystemPredicate(t *testing.T) {
	// n=5, f=1, t=2: two processes (0,1) may miss up to 2; rest ≤ 1.
	good := mkTrace(5, [][]core.PID{pids(2, 3), pids(3, 4), pids(0), pids(), pids(1)})
	if err := BSystem(1, 2).Check(good); err != nil {
		t.Fatal(err)
	}
	// Three processes exceed the f budget: |Q| > t.
	bad := mkTrace(5, [][]core.PID{pids(2, 3), pids(3, 4), pids(0, 1), pids(), pids()})
	if err := BSystem(1, 2).Check(bad); err == nil {
		t.Fatal("three over-budget processes must violate B with t=2")
	}
	// One process exceeds even the t budget.
	bad2 := mkTrace(5, [][]core.PID{pids(1, 2, 3), pids(), pids(), pids(), pids()})
	if err := BSystem(1, 2).Check(bad2); err == nil {
		t.Fatal("exceeding the t budget must violate B")
	}
}

func TestImmediacyPredicate(t *testing.T) {
	// Ordered-block views: V0 = {0}, V1 = V2 = {0,1,2} — immediacy holds.
	good := mkTrace(3, [][]core.PID{pids(1, 2), pids(), pids()})
	if err := Immediacy().Check(good); err != nil {
		t.Fatal(err)
	}
	// p1 hears p0 but p0's suspect set is not contained in p1's.
	bad := mkTrace(3, [][]core.PID{pids(2), pids(), pids()})
	if err := Immediacy().Check(bad); err == nil {
		t.Fatal("expected immediacy violation: p1 hears p0 but D(0)⊄D(1)")
	}
	if err := ImmediateSnapshot(3).Check(good); err != nil {
		t.Fatal(err)
	}
}

func TestEventuallyNeverSuspectedDirect(t *testing.T) {
	tr := mkTrace(3,
		[][]core.PID{pids(1, 2), pids(0), pids(0)}, // everyone dirty early
		[][]core.PID{pids(1), pids(), pids(1)},     // p0 and p2 clean late
	)
	if err := EventuallyNeverSuspected(1).Check(tr); err != nil {
		t.Fatal(err)
	}
	if err := EventuallyNeverSuspected(0).Check(tr); err == nil {
		t.Fatal("stab=0 must fail: everyone suspected somewhere")
	}
	// Vacuous beyond the horizon.
	if err := EventuallyNeverSuspected(5).Check(tr); err != nil {
		t.Fatal(err)
	}
}

func TestImpliesAndSeparatesLocal(t *testing.T) {
	gen := func(seed int64) (*core.Trace, error) {
		// All traces: D(i) = {2} for i in {0,1}, empty for p2.
		return mkTrace(3, [][]core.PID{pids(2), pids(2), pids()}), nil
	}
	if err := Implies(gen, PerRoundBudget(1), SomeoneSeenByAll(), 5); err != nil {
		t.Fatal(err)
	}
	// Broken generator reported as such.
	if err := Implies(gen, IdenticalSuspects(), SomeoneSeenByAll(), 5); err == nil {
		t.Fatal("generator violating the source predicate must be reported")
	}
	if _, err := Separates(gen, PerRoundBudget(1), SomeoneSeenByAll(), 5); err == nil {
		t.Fatal("no witness exists; Separates must say so")
	}
	cycleGen := func(seed int64) (*core.Trace, error) {
		return mkTrace(3, [][]core.PID{pids(1), pids(2), pids(0)}), nil
	}
	seed, err := Separates(cycleGen, PerRoundBudget(1), SomeoneSeenByAll(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if seed != 0 {
		t.Fatalf("witness seed = %d", seed)
	}
	// A generator's own failure is returned, not checked as a trace.
	boom := errors.New("boom")
	failing := func(seed int64) (*core.Trace, error) {
		if seed == 2 {
			return nil, boom
		}
		return gen(seed)
	}
	if err := Implies(failing, PerRoundBudget(1), SomeoneSeenByAll(), 5); !errors.Is(err, boom) || !strings.Contains(err.Error(), "seed 2") {
		t.Fatalf("Implies over a failing generator: %v", err)
	}
	if _, err := Separates(failing, PerRoundBudget(1), SomeoneSeenByAll(), 5); !errors.Is(err, boom) {
		t.Fatalf("Separates over a failing generator: %v", err)
	}
}

func TestAndShortCircuitsWithContext(t *testing.T) {
	tr := mkTrace(3, [][]core.PID{pids(0), pids(), pids()}) // self-suspicion
	err := SendOmission(2).Check(tr)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), "sync-send-omission") {
		t.Fatalf("conjunction name missing from error: %v", err)
	}
}

// TestCompoundErrorsWrapTheViolation: through nested And/Or the failure
// still reads exactly as fmt.Errorf("%s: %w") rendered it, and still is the
// part's *Violation to errors.As.
func TestCompoundErrorsWrapTheViolation(t *testing.T) {
	tr := mkTrace(3, [][]core.PID{pids(0), pids(), pids()}) // p0 suspects itself
	p := And("outer",
		PerRoundBudget(2),
		Or("either", SyncCrash(2), IdenticalSuspects()))
	err := p.Check(tr)
	const want = `outer: either: every disjunct fails, first: sync-crash(f=2): sync-send-omission(f=2): ` +
		`predicate "self-trusting" violated (round 1, process 0): process suspects itself`
	if err == nil || err.Error() != want {
		t.Fatalf("error text\n got %v\nwant %s", err, want)
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("errors.As found no *Violation in %#v", err)
	}
	if v.Predicate != "self-trusting" || v.Round != 1 || v.Proc != 0 {
		t.Fatalf("unwrapped to %+v, want the self-trusting violation at round 1, process 0", v)
	}
	if inner := errors.Unwrap(err); inner == nil || "outer: "+inner.Error() != want {
		t.Fatalf("Unwrap gives %v, want the disjunction's failure", inner)
	}
}

// TestExhaustiveWalkAllocations pins the two halves of the exhaustive sweep:
// the walk rewrites one trace in place, so all 343 one-round traces cost only
// ExhaustiveTraces' set-up; and a premise that fails is only compared with
// nil, so it costs its Violation, its Detail and one wrapper per compound —
// no rendered text.
func TestExhaustiveWalkAllocations(t *testing.T) {
	visit := func(*core.Trace) error { return nil }
	walk := testing.AllocsPerRun(5, func() {
		if err := ExhaustiveTraces(3, 1, visit); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 36, all before the first trace; rebuilding costs 14 a trace.
	if walk > 45 {
		t.Fatalf("ExhaustiveTraces(3, 1) allocated %.0f times over 343 traces, want <= 45 (set-up only)", walk)
	}

	premise, consequent := SyncCrash(2), SendOmission(2)
	const traces = 117649
	implies := testing.AllocsPerRun(1, func() {
		if checked, _, err := ExhaustiveImplies(3, 2, premise, consequent); err != nil || checked != traces {
			t.Fatalf("checked %d, err %v", checked, err)
		}
	})
	// Measured 3.25 a trace; rendering the discarded text is 6 more.
	if perTrace := implies / traces; perTrace > 4.1 {
		t.Fatalf("ExhaustiveImplies(3, 2, sync-crash, send-omission) allocated %.2f times per trace, want <= 4.1", perTrace)
	}
}

func TestViolationErrorFormat(t *testing.T) {
	v := &Violation{Predicate: "p", Round: 3, Proc: 1, Detail: "boom"}
	if got := v.Error(); !strings.Contains(got, "round 3") || !strings.Contains(got, "process 1") {
		t.Fatalf("Error() = %q", got)
	}
	whole := &Violation{Predicate: "p", Proc: -1, Detail: "boom"}
	if got := whole.Error(); !strings.Contains(got, "whole trace") {
		t.Fatalf("Error() = %q", got)
	}
}

func TestPrefixForTheorem41(t *testing.T) {
	// A trace whose cumulative suspicion budget holds for the first 2
	// rounds but not the third — exactly the shape Theorem 4.1 needs.
	tr := mkTrace(4,
		[][]core.PID{pids(1), pids(), pids(), pids()},
		[][]core.PID{pids(2), pids(), pids(), pids()},
		[][]core.PID{pids(3), pids(), pids(), pids()},
	)
	if err := TotalSuspectBudget(2).Check(tr.Prefix(2)); err != nil {
		t.Fatal(err)
	}
	if err := TotalSuspectBudget(2).Check(tr); err == nil {
		t.Fatal("full trace must exceed the budget")
	}
}
