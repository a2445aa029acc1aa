package hoalg

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/predicate"
)

// This file differentially tests the checker compiler's window driver:
// eventually(stab, e) is compiled as a wrapper that raises the window start
// of e's checker, and the reference is the atom's checker called with that
// window start directly. Both must agree on the verdict of every trace —
// and, when both reject, on the Violation's round and process attribution
// (the predicate names differ by design).

type diffPair struct {
	name string
	expr *Expr
	ref  predicate.P
}

// composedPairs are the pairs whose two sides are built differently: a
// compiled window wrapper against a shifted atom.
func composedPairs() []diffPair {
	return []diffPair{
		{"eventually-neversusp1", Eventually(1, NeverSuspected()), predicate.AtomNeverSusp.Checker("eventually-neversusp1", 2)},
		{"eventually-neversusp2", Eventually(2, NeverSuspected()), predicate.AtomNeverSusp.Checker("eventually-neversusp2", 3)},
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
// tiny universe (7^6 ≈ 1.2e5 traces at n=3, rounds=2) through every pair.
func TestCompiledCheckersMatchExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive differential sweep")
	}
	pairs := composedPairs()
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
	pairs := composedPairs()
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
			ref:  predicate.AtomNeverSusp.Checker("eventually-short", stab+1),
		}
		sameVerdict(t, pair, tr)
		if err := pair.expr.Compile().Check(tr); err != nil {
			t.Fatalf("stab=%d over a %d-round trace must be vacuous: %v", stab, tr.Len(), err)
		}
	}
}

// TestCompiledCheckerOrSemantics exercises the Or combinator: a
// disjunction passes iff some disjunct does.
func TestCompiledCheckerOrSemantics(t *testing.T) {
	expr := Or(KSetEq3(1), PerRound(1))
	comp, kset, perround := expr.Compile(), KSetEq3(1).Compile(), PerRound(1).Compile()
	count := 0
	if err := predicate.ExhaustiveTraces(3, 1, func(tr *core.Trace) error {
		got := comp.Check(tr)
		a := kset.Check(tr)
		b := perround.Check(tr)
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
	comp, inner := expr.Compile(), PerRound(0).Compile()
	if err := predicate.ExhaustiveTraces(3, 1, func(tr *core.Trace) error {
		got := comp.Check(tr)
		body := inner.Check(tr)
		if (got == nil) != (body != nil) {
			t.Fatalf("not verdict diverges on\n%s\n  compiled %v, body %v", tr, got, body)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHoldsAgreesWithCheck holds the witness-free verdict to the witnessed
// one, Holds(t) == (Check(t) == nil), for every catalog model and a Not, two
// Ors and an eventually over it: over every one-round trace at n = 3 and
// 2 000 seeded two-round traces at n = 4.
func TestHoldsAgreesWithCheck(t *testing.T) {
	checkers := func(n int) []predicate.P {
		var ps []predicate.P
		for _, m := range Catalog() {
			e := m.Build(Params{N: n, F: 1, K: 2, Stab: 1})
			for _, c := range []*Expr{e, Not(e), Or(e, Identical()), Or(Not(e), KSetEq3(1)), Eventually(1, e)} {
				ps = append(ps, c.Compile())
			}
		}
		return ps
	}
	agree := func(ps []predicate.P, tr *core.Trace) {
		t.Helper()
		for _, p := range ps {
			if holds, err := p.Holds(tr), p.Check(tr); holds != (err == nil) {
				t.Fatalf("%s: Holds = %v but Check = %v on trace\n%s", p.Name, holds, err, tr)
			}
		}
	}
	ps := checkers(3)
	if err := predicate.ExhaustiveTraces(3, 1, func(tr *core.Trace) error {
		agree(ps, tr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	ps = checkers(4)
	for seed := int64(0); seed < 2000; seed++ {
		agree(ps, randomTrace(rand.New(rand.NewSource(seed)), 4, 2))
	}
}
