package predicate

import (
	"errors"
	"fmt"
	"strconv"
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

// atom is k's checker under the name hoalg gives the atom, "atmost(2)" say.
// The models below are spelled the way hoalg compiles them: this package's
// tests cannot import hoalg, which imports it.
func atom(k AtomKind, args ...int) P {
	name := k.Name()
	if len(args) > 0 {
		strs := make([]string, len(args))
		for i, a := range args {
			strs[i] = strconv.Itoa(a)
		}
		name += "(" + strings.Join(strs, ", ") + ")"
	}
	return k.Checker(name, 1, args...)
}

// and conjoins ps under the name hoalg gives the conjunction, "a & b".
func and(ps ...P) P {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return And(strings.Join(names, " & "), ps...)
}

func sendOmission(f int) P { return and(atom(AtomSelfTrust), atom(AtomAtMost, f)) }

func syncCrash(f int) P {
	return and(atom(AtomSelfTrust), atom(AtomAtMost, f), atom(AtomPropagates))
}

func sharedMemory(f int) P { return and(atom(AtomPerRound, f), atom(AtomSomeoneSeen)) }

func atomicSnapshot(f int) P {
	return and(atom(AtomPerRound, f), atom(AtomSelfTrust), atom(AtomChain))
}

func immediateSnapshot(n int) P {
	return and(atom(AtomSelfTrust), atom(AtomChain), atom(AtomImmediacy), atom(AtomPerRound, n-1))
}

// eventually is eventually(stab, neversusp): the atom judged from round
// stab+1 on.
func eventually(stab int) P {
	return AtomNeverSusp.Checker(fmt.Sprintf("eventually(%d, neversusp)", stab), stab+1)
}

func TestSelfTrusting(t *testing.T) {
	good := mkTrace(3, [][]core.PID{pids(1), pids(), pids(0)})
	if err := atom(AtomSelfTrust).Check(good); err != nil {
		t.Fatal(err)
	}
	bad := mkTrace(3, [][]core.PID{pids(0), pids(), pids()})
	err := atom(AtomSelfTrust).Check(bad)
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
	if err := atom(AtomAtMost, 2).Check(tr); err != nil {
		t.Fatal(err)
	}
	if err := atom(AtomAtMost, 1).Check(tr); err == nil {
		t.Fatal("budget 1 should fail: two distinct processes suspected")
	}
}

func TestSuspicionPropagates(t *testing.T) {
	good := mkTrace(3,
		[][]core.PID{pids(2), pids(), pids()},
		[][]core.PID{pids(2), pids(2), pids(2)},
	)
	if err := atom(AtomPropagates).Check(good); err != nil {
		t.Fatal(err)
	}
	bad := mkTrace(3,
		[][]core.PID{pids(2), pids(), pids()},
		[][]core.PID{pids(2), pids(), pids(2)}, // p1 forgot the suspicion
	)
	if err := atom(AtomPropagates).Check(bad); err == nil {
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
	if err := atom(AtomSomeoneSeen).Check(good); err != nil {
		t.Fatal(err)
	}
	// 0 suspects 1, 1 suspects 2, 2 suspects 0: everyone suspected.
	bad := mkTrace(3, [][]core.PID{pids(1), pids(2), pids(0)})
	if err := atom(AtomSomeoneSeen).Check(bad); err == nil {
		t.Fatal("cycle should violate eq4")
	}
}

func TestNoMutualMissAndCycleSeparation(t *testing.T) {
	// The paper's point: a miss-cycle satisfies no-mutual-miss but
	// violates eq. (4).
	cycle := mkTrace(3, [][]core.PID{pids(1), pids(2), pids(0)})
	if err := atom(AtomNoMutualMiss).Check(cycle); err != nil {
		t.Fatalf("cycle should satisfy no-mutual-miss: %v", err)
	}
	if err := atom(AtomSomeoneSeen).Check(cycle); err == nil {
		t.Fatal("cycle must violate eq4 — this is the paper's separation example")
	}
	mutual := mkTrace(3, [][]core.PID{pids(1), pids(0), pids()})
	if err := atom(AtomNoMutualMiss).Check(mutual); err == nil {
		t.Fatal("mutual miss should violate the predicate")
	}
}

func TestContainmentChain(t *testing.T) {
	good := mkTrace(4, [][]core.PID{pids(3), pids(2, 3), pids(3), pids()})
	if err := atom(AtomChain).Check(good); err != nil {
		t.Fatal(err)
	}
	bad := mkTrace(4, [][]core.PID{pids(1), pids(2), pids(), pids()})
	if err := atom(AtomChain).Check(bad); err == nil {
		t.Fatal("incomparable suspect sets should fail the chain predicate")
	}
}

func TestNeverSuspectedExists(t *testing.T) {
	good := mkTrace(3,
		[][]core.PID{pids(1), pids(1), pids(1)},
		[][]core.PID{pids(2), pids(2), pids()},
	)
	if err := atom(AtomNeverSusp).Check(good); err != nil {
		t.Fatal(err)
	}
	bad := mkTrace(3,
		[][]core.PID{pids(1), pids(0), pids()},
		[][]core.PID{pids(2), pids(), pids()},
	)
	if err := atom(AtomNeverSusp).Check(bad); err == nil {
		t.Fatal("all processes suspected at some point — predicate must fail")
	}
}

func TestKSetDetector(t *testing.T) {
	// Everyone agrees on {2}, disagreement only on {1}: uncertainty 1.
	tr := mkTrace(4, [][]core.PID{pids(2), pids(1, 2), pids(2), pids(1, 2)})
	if err := atom(AtomKSet, 2).Check(tr); err != nil {
		t.Fatal(err)
	}
	if err := atom(AtomKSet, 1).Check(tr); err == nil {
		t.Fatal("uncertainty 1 must violate k=1 detector")
	}
	// Perfect agreement: k=1 holds.
	agree := mkTrace(4, [][]core.PID{pids(3), pids(3), pids(3), pids(3)})
	if err := atom(AtomKSet, 1).Check(agree); err != nil {
		t.Fatal(err)
	}
}

func TestIdenticalSuspects(t *testing.T) {
	good := mkTrace(3, [][]core.PID{pids(2), pids(2), pids(2)})
	if err := atom(AtomIdentical).Check(good); err != nil {
		t.Fatal(err)
	}
	bad := mkTrace(3, [][]core.PID{pids(2), pids(1), pids(2)})
	if err := atom(AtomIdentical).Check(bad); err == nil {
		t.Fatal("differing suspect sets must violate eq5")
	}
}

func TestBSystemPredicate(t *testing.T) {
	// n=5, f=1, t=2: two processes (0,1) may miss up to 2; rest ≤ 1.
	good := mkTrace(5, [][]core.PID{pids(2, 3), pids(3, 4), pids(0), pids(), pids(1)})
	if err := atom(AtomBSys, 1, 2).Check(good); err != nil {
		t.Fatal(err)
	}
	// Three processes exceed the f budget: |Q| > t.
	bad := mkTrace(5, [][]core.PID{pids(2, 3), pids(3, 4), pids(0, 1), pids(), pids()})
	if err := atom(AtomBSys, 1, 2).Check(bad); err == nil {
		t.Fatal("three over-budget processes must violate B with t=2")
	}
	// One process exceeds even the t budget.
	bad2 := mkTrace(5, [][]core.PID{pids(1, 2, 3), pids(), pids(), pids(), pids()})
	if err := atom(AtomBSys, 1, 2).Check(bad2); err == nil {
		t.Fatal("exceeding the t budget must violate B")
	}
}

func TestImmediacyPredicate(t *testing.T) {
	// Ordered-block views: V0 = {0}, V1 = V2 = {0,1,2} — immediacy holds.
	good := mkTrace(3, [][]core.PID{pids(1, 2), pids(), pids()})
	if err := atom(AtomImmediacy).Check(good); err != nil {
		t.Fatal(err)
	}
	// p1 hears p0 but p0's suspect set is not contained in p1's.
	bad := mkTrace(3, [][]core.PID{pids(2), pids(), pids()})
	if err := atom(AtomImmediacy).Check(bad); err == nil {
		t.Fatal("expected immediacy violation: p1 hears p0 but D(0)⊄D(1)")
	}
	if err := immediateSnapshot(3).Check(good); err != nil {
		t.Fatal(err)
	}
}

func TestEventuallyNeverSuspectedDirect(t *testing.T) {
	tr := mkTrace(3,
		[][]core.PID{pids(1, 2), pids(0), pids(0)}, // everyone dirty early
		[][]core.PID{pids(1), pids(), pids(1)},     // p0 and p2 clean late
	)
	if err := eventually(1).Check(tr); err != nil {
		t.Fatal(err)
	}
	if err := eventually(0).Check(tr); err == nil {
		t.Fatal("stab=0 must fail: everyone suspected somewhere")
	}
	// Vacuous beyond the horizon.
	if err := eventually(5).Check(tr); err != nil {
		t.Fatal(err)
	}
}

func TestImpliesAndSeparatesLocal(t *testing.T) {
	gen := func(seed int64) (*core.Trace, error) {
		// All traces: D(i) = {2} for i in {0,1}, empty for p2.
		return mkTrace(3, [][]core.PID{pids(2), pids(2), pids()}), nil
	}
	if err := Implies(gen, PerRoundBudget(1), atom(AtomSomeoneSeen), 5); err != nil {
		t.Fatal(err)
	}
	// Broken generator reported as such.
	if err := Implies(gen, atom(AtomIdentical), atom(AtomSomeoneSeen), 5); err == nil {
		t.Fatal("generator violating the source predicate must be reported")
	}
	if _, err := Separates(gen, PerRoundBudget(1), atom(AtomSomeoneSeen), 5); err == nil {
		t.Fatal("no witness exists; Separates must say so")
	}
	cycleGen := func(seed int64) (*core.Trace, error) {
		return mkTrace(3, [][]core.PID{pids(1), pids(2), pids(0)}), nil
	}
	seed, err := Separates(cycleGen, PerRoundBudget(1), atom(AtomSomeoneSeen), 5)
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
	if err := Implies(failing, PerRoundBudget(1), atom(AtomSomeoneSeen), 5); !errors.Is(err, boom) || !strings.Contains(err.Error(), "seed 2") {
		t.Fatalf("Implies over a failing generator: %v", err)
	}
	if _, err := Separates(failing, PerRoundBudget(1), atom(AtomSomeoneSeen), 5); !errors.Is(err, boom) {
		t.Fatalf("Separates over a failing generator: %v", err)
	}
}

func TestAndShortCircuitsWithContext(t *testing.T) {
	tr := mkTrace(3, [][]core.PID{pids(0), pids(), pids()}) // self-suspicion
	err := sendOmission(2).Check(tr)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !strings.Contains(err.Error(), "selftrust & atmost(2): ") {
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
		Or("either", syncCrash(2), atom(AtomIdentical)))
	err := p.Check(tr)
	const want = `outer: either: every disjunct fails, first: selftrust & atmost(2) & propagates: ` +
		`predicate "selftrust" violated (round 1, process 0): process suspects itself`
	if err == nil || err.Error() != want {
		t.Fatalf("error text\n got %v\nwant %s", err, want)
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("errors.As found no *Violation in %#v", err)
	}
	if v.Predicate != "selftrust" || v.Round != 1 || v.Proc != 0 {
		t.Fatalf("unwrapped to %+v, want the selftrust violation at round 1, process 0", v)
	}
	if inner := errors.Unwrap(err); inner == nil || "outer: "+inner.Error() != want {
		t.Fatalf("Unwrap gives %v, want the disjunction's failure", inner)
	}
}

// TestExhaustiveWalkAllocations pins the two halves of the exhaustive sweep:
// the walk rewrites one trace in place, so all 343 one-round traces cost only
// ExhaustiveTraces' set-up; and a verdict that is only compared with nil
// goes through Holds, so a failure builds no Violation, detaches no witness
// set and wraps nothing — only the sets the clause itself evaluates.
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

	premise, consequent := syncCrash(2), sendOmission(2)
	const traces = 117649
	implies := testing.AllocsPerRun(1, func() {
		if checked, _, err := ExhaustiveImplies(3, 2, premise, consequent); err != nil || checked != traces {
			t.Fatalf("checked %d, err %v", checked, err)
		}
	})
	// Measured 0.0415 a trace: one scratch row per evaluation of a
	// premise that passes self-trust (0.11 with a fresh union per round).
	if perTrace := implies / traces; perTrace > 0.05 {
		t.Fatalf("ExhaustiveImplies(3, 2, sync-crash, send-omission) allocated %.3f times per trace, want <= 0.05", perTrace)
	}

	// E07's proof rows: most of the 15^4 one-round traces violate the
	// k-set detector, and the sweep asks only whether it holds.
	kset := atom(AtomKSet, 2)
	const ksetTraces = 50625
	sweep := func(visit func(*core.Trace) error) float64 {
		return testing.AllocsPerRun(1, func() {
			if err := ExhaustiveTraces(4, 1, visit); err != nil {
				t.Fatal(err)
			}
		})
	}
	proof := sweep(func(tr *core.Trace) error {
		kset.Holds(tr)
		return nil
	}) - sweep(visit)
	// Measured exactly 1 beyond the walk's set-up: the evaluation's one
	// scratch row, the union that shrinks to the intersection (-race adds
	// 6 in all; 2 with a fresh set for each).
	if perTrace := proof / ksetTraces; perTrace > 1.001 {
		t.Fatalf("ExhaustiveTraces(4, 1) under k-set-detector(k=2) allocated %.3f times per trace, want <= 1", perTrace)
	}
}

// TestHoldsKeepsNothing pins the witness-free failure: every predicate,
// atom or compound, fails Eval(t, false) with the one shared error — no
// *Violation, no wrapper — while Check on the same trace still builds its
// witness.
func TestHoldsKeepsNothing(t *testing.T) {
	tr := mkTrace(3, [][]core.PID{pids(0), pids(0, 1), pids()})
	for _, p := range []P{
		atom(AtomSelfTrust),
		atom(AtomAtMost, 0),
		syncCrash(1),
		Or("either", atom(AtomSelfTrust), atom(AtomPerRound, 0)),
		Not("not", atom(AtomChain)),
	} {
		if p.Holds(tr) {
			t.Fatalf("%s holds on a trace it must reject", p.Name)
		}
		if err := p.Eval(tr, false); err != errFails {
			t.Fatalf("%s: Eval(t, false) = %#v, want the shared errFails", p.Name, err)
		}
		var v *Violation
		if err := p.Check(tr); !errors.As(err, &v) {
			t.Fatalf("%s: Check = %v, want a witnessed *Violation", p.Name, err)
		}
	}
}

func TestViolationErrorFormat(t *testing.T) {
	tr := mkTrace(3,
		[][]core.PID{pids(), pids(), pids()},
		[][]core.PID{pids(), pids(), pids()},
		[][]core.PID{pids(), pids(1), pids()},
	)
	err := atom(AtomSelfTrust).Check(tr)
	if err == nil || !strings.Contains(err.Error(), "round 3") || !strings.Contains(err.Error(), "process 1") {
		t.Fatalf("Error() = %v", err)
	}
	whole := atom(AtomAtMost, 0).Check(tr)
	if whole == nil || !strings.Contains(whole.Error(), "whole trace") {
		t.Fatalf("Error() = %v", whole)
	}
	var v *Violation
	if !errors.As(whole, &v) || v.Detail() != "1 distinct processes suspected ({1}), budget 0" {
		t.Fatalf("Detail() of %v", whole)
	}
}

// TestViolationOutlivesTheWalk: a violation taken inside an ExhaustiveTraces
// callback renders, after the walk has rewritten the trace many times over,
// the text it had when it was taken — its witness is a copy, not a view of
// the trace. Every atom, a negation and the compounds are sampled.
func TestViolationOutlivesTheWalk(t *testing.T) {
	preds := []P{
		atom(AtomSelfTrust), atom(AtomAtMost, 1), PerRoundBudget(1), atom(AtomKSet, 2),
		atom(AtomNoMutualMiss), atom(AtomSomeoneSeen), atom(AtomIdentical), atom(AtomChain),
		atom(AtomImmediacy), atom(AtomPropagates), atom(AtomNeverSusp),
		eventually(1), atom(AtomBSys, 0, 1), atom(AtomBSys, 1, 2),
		Not("not-budget", PerRoundBudget(2)), syncCrash(1),
		Or("either", sharedMemory(1), atomicSnapshot(1)),
	}
	type kept struct {
		err  error
		text string
	}
	var saved []kept
	visits := 0
	if err := ExhaustiveTraces(3, 2, func(tr *core.Trace) error {
		visits++
		if visits%211 != 0 {
			return nil
		}
		for _, p := range preds {
			if err := p.Check(tr); err != nil {
				saved = append(saved, kept{err, err.Error()})
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(saved) < 1000 {
		t.Fatalf("sampled only %d violations", len(saved))
	}
	for _, k := range saved {
		if got := k.err.Error(); got != k.text {
			t.Fatalf("after the walk moved on\n got %s\nwant %s", got, k.text)
		}
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
	if err := atom(AtomAtMost, 2).Check(tr.Prefix(2)); err != nil {
		t.Fatal(err)
	}
	if err := atom(AtomAtMost, 2).Check(tr); err == nil {
		t.Fatal("full trace must exceed the budget")
	}
}
