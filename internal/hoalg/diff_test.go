package hoalg

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/predicate"
)

// This file differentially tests the checker compiler: for every ported
// predicate, the compiled checker and the hand-written internal/predicate
// twin must agree on the verdict of every trace — and, when both reject,
// on the Violation's round and process attribution (the predicate names
// differ by design: compiled checkers are named by their expression).

type diffPair struct {
	name string
	expr *Expr
	ref  predicate.P
}

// diffPairs is every pair for universes of n processes: atomPairs, then
// composedPairs.
func diffPairs(n int) []diffPair {
	return append(atomPairs(), composedPairs(n)...)
}

// atomPairs are the pairs whose compiled and named checkers are the same
// AtomKind.Checker call with the same window start, differing only in name
// (forever(e) compiles to e's checker). Swept exhaustively they would
// compare a function with itself, so only the random sweep runs them.
func atomPairs() []diffPair {
	return []diffPair{
		{"selftrust", SelfTrusting(), predicate.SelfTrusting()},
		{"atmost0", AtMostSuspected(0), predicate.TotalSuspectBudget(0)},
		{"atmost1", AtMostSuspected(1), predicate.TotalSuspectBudget(1)},
		{"atmost2", AtMostSuspected(2), predicate.TotalSuspectBudget(2)},
		{"perround1", PerRound(1), predicate.PerRoundBudget(1)},
		{"perround2", PerRound(2), predicate.PerRoundBudget(2)},
		{"kset1", KSetEq3(1), predicate.KSetDetector(1)},
		{"kset2", KSetEq3(2), predicate.KSetDetector(2)},
		{"nomutualmiss", NoMutualMiss(), predicate.NoMutualMiss()},
		{"someoneseen", SomeoneSeen(), predicate.SomeoneSeenByAll()},
		{"identical", Identical(), predicate.IdenticalSuspects()},
		{"chain", Chain(), predicate.ContainmentChain()},
		{"immediacy", Immediacy(), predicate.Immediacy()},
		{"propagates", Propagates(), predicate.SuspicionPropagates()},
		{"neversusp", NeverSuspected(), predicate.NeverSuspectedExists()},
		{"bsys12", BSys(1, 2), predicate.BSystem(1, 2)},
		{"forever-perround", Forever(PerRound(1)), predicate.PerRoundBudget(1)},
	}
}

// composedPairs are the pairs whose two sides are built differently: the
// composites (a compiled And of atoms against a named conjunction) and the
// eventually windows (a compiled window wrapper against a shifted atom).
func composedPairs(n int) []diffPair {
	return []diffPair{
		{"send-omission", SendOmission(1), predicate.SendOmission(1)},
		{"sync-crash", SyncCrash(1), predicate.SyncCrash(1)},
		{"shared-memory", SharedMemory(1), predicate.SharedMemory(1)},
		{"atomic-snapshot", AtomicSnapshot(1), predicate.AtomicSnapshot(1)},
		{"eventually-neversusp1", Eventually(1, NeverSuspected()), predicate.EventuallyNeverSuspected(1)},
		{"eventually-neversusp2", Eventually(2, NeverSuspected()), predicate.EventuallyNeverSuspected(2)},
		{"immediate-snapshot", ImmediateSnapshot(n), predicate.ImmediateSnapshot(n)},
	}
}

// sameVerdict fails the test unless the compiled and reference checkers
// agree on the trace — including Violation round/proc attribution.
func sameVerdict(t *testing.T, pair diffPair, tr *core.Trace) {
	t.Helper()
	got := pair.expr.Compile().Check(tr)
	want := pair.ref.Check(tr)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: verdicts diverge on trace\n%s\n  compiled: %v\n  reference: %v",
			pair.name, tr, got, want)
	}
	if got == nil {
		return
	}
	var gv, wv *predicate.Violation
	if !errors.As(got, &gv) || !errors.As(want, &wv) {
		t.Fatalf("%s: non-Violation error (compiled %T, reference %T)", pair.name, got, want)
	}
	if gv.Round != wv.Round || gv.Proc != wv.Proc {
		t.Fatalf("%s: attribution diverges on trace\n%s\n  compiled: round %d proc %d (%v)\n  reference: round %d proc %d (%v)",
			pair.name, tr, gv.Round, gv.Proc, got, wv.Round, wv.Proc, want)
	}
}

// TestCompiledCheckersMatchExhaustive sweeps every crash-free trace over a
// tiny universe (7^6 ≈ 1.2e5 traces at n=3, rounds=2) through every pair
// whose two sides are built differently.
func TestCompiledCheckersMatchExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive differential sweep")
	}
	pairs := composedPairs(3)
	if err := predicate.ExhaustiveTraces(3, 2, func(tr *core.Trace) error {
		for _, pair := range pairs {
			sameVerdict(t, pair, tr)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// randomTrace builds a seeded trace with arbitrary suspect sets and a
// monotonically shrinking active set (fail-stop crashes), the shape engine
// traces have. Deliver entries stay nil: checkers only read D(i,r).
func randomTrace(rng *rand.Rand, n, rounds int) *core.Trace {
	tr := core.NewTrace(n)
	active := core.FullSet(n)
	crashed := core.NewSet(n)
	for r := 1; r <= rounds; r++ {
		if r > 1 && rng.Intn(4) == 0 && active.Count() > 1 {
			victim := active.Members()[rng.Intn(active.Count())]
			active = active.Clone()
			active.Remove(victim)
			crashed = crashed.Clone()
			crashed.Add(victim)
		}
		rec := core.RoundRecord{
			R:        r,
			Suspects: make([]core.Set, n),
			Deliver:  make([]core.Set, n),
			Active:   active,
			Crashed:  crashed,
		}
		for i := 0; i < n; i++ {
			d := core.NewSet(n)
			if active.Has(core.PID(i)) {
				for j := 0; j < n; j++ {
					// Bias toward small sets so satisfying traces are
					// common enough to exercise the nil-verdict path too.
					if rng.Intn(3) == 0 {
						d.Add(core.PID(j))
					}
				}
				if d.Count() == n {
					d.Remove(core.PID(rng.Intn(n)))
				}
			}
			rec.Suspects[i] = d
		}
		tr.Append(rec)
	}
	return tr
}

// TestCompiledCheckersMatchRandom drives thousands of seeded random traces
// (with crashes and self-suspicions the exhaustive sweep cannot produce)
// through every pair.
func TestCompiledCheckersMatchRandom(t *testing.T) {
	const n, rounds, seeds = 5, 4, 2000
	pairs := diffPairs(n)
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tr := randomTrace(rng, n, rounds)
		for _, pair := range pairs {
			sameVerdict(t, pair, tr)
		}
	}
}

// TestCompiledCheckerShortTraceWindows pins the vacuous-window semantics:
// an eventually(stab, ...) over a trace no longer than stab passes, like
// its hand-written twin.
func TestCompiledCheckerShortTraceWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomTrace(rng, 4, 2)
	for _, stab := range []int{2, 3, 5} {
		pair := diffPair{
			name: "eventually-short",
			expr: Eventually(stab, NeverSuspected()),
			ref:  predicate.EventuallyNeverSuspected(stab),
		}
		sameVerdict(t, pair, tr)
		if err := pair.expr.Compile().Check(tr); err != nil {
			t.Fatalf("stab=%d over a %d-round trace must be vacuous: %v", stab, tr.Len(), err)
		}
	}
}

// TestCompiledCheckerOrSemantics exercises the Or combinator the reference
// package gained for the compiler: a disjunction passes iff some disjunct
// does.
func TestCompiledCheckerOrSemantics(t *testing.T) {
	expr := Or(KSetEq3(1), PerRound(1))
	comp := expr.Compile()
	count := 0
	if err := predicate.ExhaustiveTraces(3, 1, func(tr *core.Trace) error {
		got := comp.Check(tr)
		a := predicate.KSetDetector(1).Check(tr)
		b := predicate.PerRoundBudget(1).Check(tr)
		want := a == nil || b == nil
		if (got == nil) != want {
			t.Fatalf("or verdict diverges on\n%s\n  compiled %v, kset %v, perround %v", tr, got, a, b)
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("no traces enumerated")
	}
}

// TestCompiledCheckerNotSemantics: a negation passes iff the body fails.
func TestCompiledCheckerNotSemantics(t *testing.T) {
	expr := Not(PerRound(0))
	comp := expr.Compile()
	if err := predicate.ExhaustiveTraces(3, 1, func(tr *core.Trace) error {
		got := comp.Check(tr)
		body := predicate.PerRoundBudget(0).Check(tr)
		if (got == nil) != (body != nil) {
			t.Fatalf("not verdict diverges on\n%s\n  compiled %v, body %v", tr, got, body)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
