package hoalg

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/faultnet"
)

// This file closes the loop between the plan compiler and the checker
// compiler through the real chaos harness: for every catalog model, an
// honest CompilePlan campaign must satisfy the model's own compiled
// checker, a breaker plan (CompilePlan of the negation) must be caught by
// it, and both campaigns must be deterministic functions of the seed.

const (
	closureSeed   = 11
	closureRuns   = 3
	closureRounds = 3 // > stab+1 so eventual models have a checked suffix
)

func closureParams() Params { return Params{N: 5, F: 1, K: 2, Stab: 1} }

func closureConfig(t *testing.T, e *Expr, plan *Expr) chaos.Config {
	t.Helper()
	p := closureParams()
	fp, err := plan.CompilePlan(p.N, closureSeed)
	if err != nil {
		t.Fatalf("CompilePlan(%q): %v", plan, err)
	}
	pred := e.Compile()
	return chaos.Config{
		N: p.N, F: p.F, K: p.K,
		Rounds: closureRounds,
		Runs:   closureRuns,
		Seed:   closureSeed,
		// MaxCrashes stays 0 and rounds run lock-step, so the plan is the
		// only source of suspicions: D(i,r) = omitting senders ∖ {i}.
		SyncRounds: true,
		FixedPlan:  &fp,
		TracePred:  &pred,
		Out:        io.Discard,
	}
}

// TestCompiledPlansSatisfyCompiledCheckers: honest plan, own checker, all
// models, zero violations.
func TestCompiledPlansSatisfyCompiledCheckers(t *testing.T) {
	p := closureParams()
	for _, m := range Catalog() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			e := m.Build(p)
			sum := chaos.Run(closureConfig(t, e, e))
			if !sum.Ok() {
				t.Fatalf("honest plan for %q violates its own checker: %+v", e, sum.Violations)
			}
		})
	}
}

// TestBreakerPlansCaughtByCompiledCheckers: the negation's plan must force
// a model violation that the compiled checker attributes as "predicate".
func TestBreakerPlansCaughtByCompiledCheckers(t *testing.T) {
	p := closureParams()
	for _, m := range Catalog() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			e := m.Build(p)
			sum := chaos.Run(closureConfig(t, e, Not(e)))
			if len(sum.Violations) == 0 {
				t.Fatalf("breaker plan for %q escaped the compiled checker", e)
			}
			found := false
			for _, v := range sum.Violations {
				if v.Kind == "predicate" && strings.Contains(v.Detail, "violates model") {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("breaker violations for %q carry no predicate kind: %+v", e, sum.Violations)
			}
		})
	}
}

// TestClosureCampaignsDeterministic: the same config yields byte-identical
// summaries, and the compiled plan itself is a pure function of
// (expression, n, seed).
func TestClosureCampaignsDeterministic(t *testing.T) {
	p := closureParams()
	e := Lookup2(t, "async").Build(p)
	a := chaos.Run(closureConfig(t, e, Not(e)))
	b := chaos.Run(closureConfig(t, e, Not(e)))
	if len(a.Violations) != len(b.Violations) {
		t.Fatalf("violation counts diverge across identical campaigns: %d vs %d",
			len(a.Violations), len(b.Violations))
	}
	for i := range a.Violations {
		if a.Violations[i].Detail != b.Violations[i].Detail {
			t.Fatalf("violation %d diverges:\n  %s\n  %s", i, a.Violations[i].Detail, b.Violations[i].Detail)
		}
	}
	for _, m := range Catalog() {
		expr := m.Build(p)
		p1, err1 := expr.CompilePlan(p.N, closureSeed)
		p2, err2 := expr.CompilePlan(p.N, closureSeed)
		if err1 != nil || err2 != nil {
			t.Fatalf("CompilePlan(%q): %v / %v", expr, err1, err2)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("CompilePlan(%q) not a pure function of the seed:\n%+v\n%+v", expr, p1, p2)
		}
	}
}

// TestCompilePlanRejections pins the shapes no rate-1.0 omission count can
// compile, each refused with the expression and n named.
func TestCompilePlanRejections(t *testing.T) {
	cases := []struct {
		expr   *Expr
		n      int
		substr string
	}{
		{Not(SelfTrusting()), 5, `violates "selftrust" at n=5`},
		{Not(Immediacy()), 5, `violates "immediacy" at n=5`},
		{Not(And(SelfTrusting(), Immediacy())), 5, `violates "selftrust & immediacy" at n=5`},
		{Not(PerRound(9)), 5, `violates "perround(9)" at n=5`},
		{And(Not(SelfTrusting()), PerRound(1)), 5, `satisfies "!selftrust & perround(1)" at n=5`},
		{PerRound(1), 1, "got n=1"},
	}
	for _, tc := range cases {
		if _, err := tc.expr.CompilePlan(tc.n, closureSeed); err == nil {
			t.Fatalf("CompilePlan(%q, n=%d) succeeded, want error containing %q", tc.expr, tc.n, tc.substr)
		} else if !strings.Contains(err.Error(), tc.substr) {
			t.Fatalf("CompilePlan(%q, n=%d) = %v, want substring %q", tc.expr, tc.n, err, tc.substr)
		}
	}
}

// TestCompilePlanInnerNegation: a negation below the top level is judged by
// the checker like any clause. !identical & perround(1) admits exactly one
// omitting sender, and a closure campaign under its plan is clean.
func TestCompilePlanInnerNegation(t *testing.T) {
	p := closureParams()
	e := And(Not(Identical()), PerRound(1))
	plan, err := e.CompilePlan(p.N, closureSeed)
	if err != nil {
		t.Fatalf("CompilePlan(%q): %v", e, err)
	}
	if got := omittingSenders(plan); got != 1 {
		t.Fatalf("CompilePlan(%q) has %d omitting senders, want 1: %+v", e, got, plan)
	}
	if sum := chaos.Run(closureConfig(t, e, e)); !sum.Ok() {
		t.Fatalf("honest plan for %q violates its own checker: %+v", e, sum.Violations)
	}
}

// TestPlanCounts pins the omission counts the checker derives for every
// catalog model at X05's parameters: the honest allowance a (the most
// senders an honest plan draws, over 64 seeds) and the breaker's count. An
// atom edit that moves a plan shows here as a diff.
func TestPlanCounts(t *testing.T) {
	want := map[string][2]int{
		"sync-omission":        {1, 2},
		"sync-crash":           {0, 1},
		"async":                {1, 2},
		"shared-memory":        {1, 2},
		"atomic-snapshot":      {1, 2},
		"immediate-snapshot":   {1, 2},
		"kset-detector":        {1, 2},
		"b-system":             {1, 2},
		"eventually-s":         {4, 5},
		"semi-sync":            {0, 1},
		"no-mutual-miss-async": {1, 2},
		"eventually-sync":      {1, 2},
		"kset-or-budget":       {1, 2},
		"selftrust-kset":       {1, 2},
	}
	p := closureParams()
	for _, m := range Catalog() {
		e := m.Build(p)
		var got [2]int
		for seed := int64(1); seed <= 64; seed++ {
			honest, err := e.CompilePlan(p.N, seed)
			if err != nil {
				t.Fatalf("CompilePlan(%q): %v", e, err)
			}
			got[0] = max(got[0], omittingSenders(honest))
		}
		breaker, err := Not(e).CompilePlan(p.N, closureSeed)
		if err != nil {
			t.Fatalf("CompilePlan(%q): %v", Not(e), err)
		}
		got[1] = omittingSenders(breaker)
		if w, ok := want[m.Name]; !ok || got != w {
			t.Errorf("%s (%s): (honest a, breaker) = %v, want %v", m.Name, e, got, w)
		}
	}
}

// TestPlanVerdictIgnoresWhichSenders checks the precondition the plan
// compiler rests on: omissionProbe judges senders 0..s−1, so the lock-step
// verdict must not depend on which s processes omit. Every catalog model at
// n = 2..5, f < n, k ≤ n and stab 0–2 must give every s-subset the verdict
// of the first s pids.
func TestPlanVerdictIgnoresWhichSenders(t *testing.T) {
	checked := 0
	for n := 2; n <= 5; n++ {
		for f := 0; f < n; f++ {
			for k := 1; k <= n; k++ {
				for stab := 0; stab <= 2; stab++ {
					for _, m := range Catalog() {
						e := m.Build(Params{N: n, F: f, K: k, Stab: stab})
						pred, rounds := e.Compile(), maxStab(e)+2
						probe, want := omissionProbe(e, n), make([]bool, n+1)
						for s := range want {
							want[s] = probe(s)
						}
						for mask := 0; mask < 1<<n; mask++ {
							var senders []core.PID
							for i := 0; i < n; i++ {
								if mask&(1<<i) != 0 {
									senders = append(senders, core.PID(i))
								}
							}
							if got := pred.Holds(lockStepTrace(n, rounds, senders)); got != want[len(senders)] {
								t.Fatalf("%s = %s at n=%d: omission from %v holds=%v, from the first %d pids holds=%v",
									m.Name, e, n, senders, got, len(senders), want[len(senders)])
							}
							checked++
						}
					}
				}
			}
		}
	}
	t.Logf("%d sender sets checked", checked)
}

// omittingSenders is the sender count of the plan's send-omission
// component, 0 without one.
func omittingSenders(p faultnet.Plan) int {
	for _, c := range p.Components {
		if c.Kind == faultnet.SendOmission {
			return len(c.Senders)
		}
	}
	return 0
}

// Lookup2 is Lookup with a test-fatal miss.
func Lookup2(t *testing.T, name string) Model {
	t.Helper()
	m, ok := Lookup(name)
	if !ok {
		t.Fatalf("catalog model %q missing", name)
	}
	return m
}
