package adversary_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/mc"
	"repro/internal/predicate"
)

// explored runs an exhaustive exploration of FloodMin(rounds) under the
// given enumeration, checking that every explored trace satisfies the
// model predicate the enumeration claims to implement.
func explored(t *testing.T, n, rounds int, enum adversary.Enum, p predicate.P) *mc.Result {
	t.Helper()
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	res, err := mc.Explore(mc.Options{}, mc.CheckRun(mc.RunSpec{
		N:       n,
		Inputs:  inputs,
		Factory: agreement.FloodMin(rounds),
		Oracle: func(ctx *mc.Ctx) core.Oracle {
			return adversary.Enumerated(ctx, n, enum)
		},
		Props: []mc.Property{mc.TraceSatisfies(p)},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("enumeration left its model: %v", res.Counterexample)
	}
	if !res.Exhausted {
		t.Fatalf("exploration not exhausted: %+v", res)
	}
	return res
}

func TestEnumPerRoundBudgetInModel(t *testing.T) {
	enum, err := adversary.EnumPerRoundBudget(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := explored(t, 3, 2, enum, predicate.PerRoundBudget(1))
	// Round 1 and round 2 each offer 3^3 = 27 plans (each process misses
	// at most one of the other two: 3 choices each).
	if res.Schedules != 27*27 {
		t.Fatalf("schedules = %d, want 729", res.Schedules)
	}
}

func TestEnumSendOmissionInModel(t *testing.T) {
	enum, err := adversary.EnumSendOmission(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	explored(t, 3, 2, enum, predicate.SendOmission(1))
}

func TestEnumSyncCrashInModel(t *testing.T) {
	enum, err := adversary.EnumSyncCrash(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	explored(t, 3, 2, enum, predicate.SyncCrash(1))
}

func TestEnumKSetInModel(t *testing.T) {
	enum, err := adversary.EnumKSet(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	explored(t, 3, 1, enum, predicate.KSetDetector(2))
}

func TestEnumGuards(t *testing.T) {
	if _, err := adversary.EnumPerRoundBudget(5, 1); err == nil {
		t.Fatal("per-round-budget n=5 should be rejected")
	}
	if _, err := adversary.EnumKSet(4, 2); err == nil {
		t.Fatal("k-set n=4 should be rejected")
	}
	if _, err := adversary.EnumSendOmission(0, 1); err == nil {
		t.Fatal("n=0 should be rejected")
	}
	if _, err := adversary.EnumSyncCrash(5, 1); err == nil {
		t.Fatal("sync-crash n=5 should be rejected")
	}
}

// TestEnumSyncCrashPropagation: a process suspected in round r must be in
// everyone's round-r+1 suspect set (eq. (2)); spot-check the enumeration
// produces crashing plans at all, not just the all-trusting one.
func TestEnumSyncCrashProducesCrashes(t *testing.T) {
	enum, err := adversary.EnumSyncCrash(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	active := core.NewSet(3)
	for p := 0; p < 3; p++ {
		active.Add(core.PID(p))
	}
	prev := core.NewSet(3)
	prev.Add(0)
	sus := core.NewSet(3)
	sus.Add(0)
	plans := enum(adversary.EnumState{R: 2, Active: active, Suspected: sus, PrevUnion: prev})
	if len(plans) == 0 {
		t.Fatal("no plans for a round with a pending crash")
	}
	for _, pl := range plans {
		if !pl.Crashes.Has(0) {
			t.Fatalf("suspected process 0 not crashed in follow-up round: %+v", pl)
		}
		pl.Crashes.ForEach(func(cp core.PID) {
			active.ForEach(func(q core.PID) {
				if q != cp && !pl.Suspects[q].Has(cp) {
					t.Fatalf("live process %d does not suspect crashed %d", q, cp)
				}
			})
		})
	}
}

// sweepRun is the run function X05 explores: FloodMin(2) at n=3 under one
// long-lived enumerator of expr, with validity and expr's compiled checker
// judged on every schedule.
func sweepRun(expr *hoalg.Expr, enum adversary.Enum) func(*mc.Ctx) error {
	const n = 3
	pred := expr.Compile()
	inputs := []core.Value{0, 1, 2}
	return mc.CheckRun(mc.RunSpec{
		N:       n,
		Inputs:  inputs,
		Factory: agreement.FloodMin(2),
		Oracle: func(ctx *mc.Ctx) core.Oracle {
			return adversary.Enumerated(ctx, n, enum)
		},
		Props: []mc.Property{mc.Validity(inputs)},
		Model: &pred,
	})
}

// TestSharedEnumExploresTheSameTree: one compiled Enum serves every schedule
// of every exploration, from every subtree worker. Its memoised lists must
// be invisible — the second exploration and every worker count report the
// Result of the first — and under -race (make hoalg-short) this is also the
// proof that the table is locked and that no consumer writes to a plan.
func TestSharedEnumExploresTheSameTree(t *testing.T) {
	expr := hoalg.BSys(1, 2)
	enum, err := expr.CompileEnum(3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := mc.Explore(mc.Options{Workers: 1}, sweepRun(expr, enum))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Exhausted || first.Schedules != 63*63 {
		t.Fatalf("first exploration: %+v, want 3969 schedules exhausted", first)
	}
	for _, workers := range []int{1, 4, 8} {
		again, err := mc.Explore(mc.Options{Workers: workers}, sweepRun(expr, enum))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("workers=%d on the warm enumerator: %+v, first exploration %+v", workers, again, first)
		}
	}
}

// TestEmptyFamilyIsAnExploreError: a model that admits no plan from some
// state is not a panic and not a counterexample — Explore (and Replay)
// return an *EmptyFamilyError naming the round and the state, at every
// worker count, and the memoised empty list fails the second exploration
// exactly like the first.
func TestEmptyFamilyIsAnExploreError(t *testing.T) {
	for _, c := range []struct {
		expr  *hoalg.Expr
		round int
	}{
		{hoalg.And(hoalg.PerRound(0), hoalg.Not(hoalg.PerRound(0))), 1},
		{hoalg.And(hoalg.Identical(), hoalg.Not(hoalg.Identical())), 1},
		// Round 1 is outside the window and offers 343 plans; each of the
		// parallel subtrees then finds round 2 empty.
		{hoalg.Eventually(1, hoalg.And(hoalg.PerRound(0), hoalg.Not(hoalg.PerRound(0)))), 2},
	} {
		enum, err := c.expr.CompileEnum(3)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		var texts []string
		for _, workers := range []int{1, 1, 4, 8} {
			res, err := mc.Explore(mc.Options{Workers: workers}, sweepRun(c.expr, enum))
			var empty *adversary.EmptyFamilyError
			if !errors.As(err, &empty) {
				t.Fatalf("%s workers=%d: Explore returned (%+v, %v), want an *EmptyFamilyError", c.expr, workers, res, err)
			}
			if empty.Round != c.round || empty.State.R != c.round || !empty.State.Active.Equal(core.FullSet(3)) {
				t.Fatalf("%s workers=%d: error names round %d, state %+v; want round %d, everyone active",
					c.expr, workers, empty.Round, empty.State, c.round)
			}
			if res == nil || res.Counterexample != nil || res.Schedules != 0 {
				t.Fatalf("%s workers=%d: result %+v, want no schedule and no counterexample", c.expr, workers, res)
			}
			texts = append(texts, err.Error())
		}
		for _, text := range texts {
			if text != texts[0] || !strings.Contains(text, fmt.Sprintf("no plan in round %d", c.round)) {
				t.Fatalf("%s: error text differs across visits or worker counts: %q", c.expr, texts)
			}
		}
		rerr := mc.Replay(nil, sweepRun(c.expr, enum))
		if rerr == nil || rerr.Error() != texts[0] {
			t.Fatalf("%s: Replay returned %v, want %q", c.expr, rerr, texts[0])
		}
	}
}

// TestEnumeratedPlanOnAWarmState pins what one round of one schedule costs
// once the enumerator knows the state: the oracle, its two history sets, the
// labels, the round union and the history entry — nothing per plan.
func TestEnumeratedPlanOnAWarmState(t *testing.T) {
	const n = 3
	enum, err := hoalg.BSys(1, 2).CompileEnum(n)
	if err != nil {
		t.Fatal(err)
	}
	active := core.FullSet(n)
	var allocs float64
	if err := mc.Replay(nil, func(ctx *mc.Ctx) error {
		allocs = testing.AllocsPerRun(100, func() {
			if plan := adversary.Enumerated(ctx, n, enum).Plan(1, active); len(plan.Suspects) != n {
				t.Fatalf("plan %+v", plan)
			}
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Measured 5. Re-enumerating the 63-plan family costs hundreds.
	if allocs > 6 {
		t.Fatalf("Enumerated + Plan on a warm state: %.0f allocations, want <= 6", allocs)
	}
}
