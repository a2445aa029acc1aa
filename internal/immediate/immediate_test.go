package immediate

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/mc"
	"repro/internal/predicate"
	"repro/internal/swmr"
)

// participateAll runs one one-shot immediate snapshot with every process
// and returns the views of processes that finished.
func participateAll(t *testing.T, n int, cfg swmr.Config) map[core.PID]*View {
	t.Helper()
	var mu sync.Mutex
	views := make(map[core.PID]*View)
	out, err := swmr.Run(n, cfg, func(p *swmr.Proc) (core.Value, error) {
		obj := New(p, "one")
		v, err := obj.Participate(int(p.Me) * 7)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		views[p.Me] = v
		mu.Unlock()
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid, e := range out.Errs {
		if !errors.Is(e, swmr.ErrCrashed) {
			t.Fatalf("process %d: %v", pid, e)
		}
	}
	return views
}

func TestOneShotProperties(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		for seed := int64(0); seed < 30; seed++ {
			views := participateAll(t, n, swmr.Config{Chooser: swmr.Seeded(seed)})
			if len(views) != n {
				t.Fatalf("n=%d seed=%d: only %d views", n, seed, len(views))
			}
			if err := CheckViews(n, views); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			// Values must be the participants' actual inputs.
			for p, v := range views {
				var badErr error
				v.Members.ForEach(func(j core.PID) {
					if v.Values[j] != int(j)*7 {
						badErr = errorf(t, "p%d view: value of %d = %v", p, j, v.Values[j])
					}
				})
				if badErr != nil {
					t.Fatal(badErr)
				}
			}
		}
	}
}

func errorf(t *testing.T, format string, args ...any) error {
	t.Helper()
	t.Errorf(format, args...)
	return errors.New("failed")
}

func TestOneShotWithCrashes(t *testing.T) {
	// Wait-freedom: any number of crashes, survivors still return valid
	// views.
	n := 6
	for seed := int64(0); seed < 20; seed++ {
		views := participateAll(t, n, swmr.Config{
			Chooser: swmr.Seeded(seed),
			Crash:   map[core.PID]int{0: 3, 4: 17, 5: 0},
		})
		if len(views) < 3 {
			t.Fatalf("seed %d: survivors did not finish", seed)
		}
		if err := CheckViews(n, views); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestOneShotSoloTerminatesAtLevelOne(t *testing.T) {
	// A process running entirely alone must exit with the singleton view.
	n := 3
	views := participateAll(t, n, swmr.Config{
		Chooser: core.PriorityGroups([]core.PID{0}, []core.PID{1}, []core.PID{2}),
	})
	if got := views[0].Members; !got.Equal(core.SetOf(n, 0)) {
		t.Fatalf("solo view = %s, want {0}", got)
	}
	if views[0].Level != 1 {
		t.Fatalf("solo level = %d, want 1", views[0].Level)
	}
	// The full staircase: each later process must see a strictly larger
	// view.
	if !views[0].Members.IsSubset(views[1].Members) || !views[1].Members.IsSubset(views[2].Members) {
		t.Fatalf("staircase views not nested: %s %s %s",
			views[0].Members, views[1].Members, views[2].Members)
	}
}

func TestExploreOneShotSmall(t *testing.T) {
	// Bounded systematic model-check of a 2-process one-shot immediate
	// snapshot: the DFS frontier of the schedule tree (each Participate
	// is ~20 register operations, so full exhaustion is out of reach;
	// 20k distinct schedules still cover every early divergence).
	res, err := mc.Explore(mc.Options{MaxSchedules: 20_000}, func(ctx *mc.Ctx) error {
		var mu sync.Mutex
		views := make(map[core.PID]*View)
		ch := ctx.Pick
		_, err := swmr.Run(2, swmr.Config{Chooser: ch}, func(p *swmr.Proc) (core.Value, error) {
			v, err := New(p, "x").Participate(int(p.Me))
			if err != nil {
				return nil, err
			}
			mu.Lock()
			views[p.Me] = v
			mu.Unlock()
			return nil, nil
		})
		if err != nil {
			return err
		}
		return CheckViews(2, views)
	})
	if err == nil && res.Counterexample != nil {
		err = res.Counterexample.Err
	}
	if err != nil {
		t.Fatalf("after %d schedules: %v", res.Schedules, err)
	}
	t.Logf("explored %d schedules (limit hit: %v)", res.Schedules, res.LimitHit)
}

func TestRunRoundsSatisfiesImmediatePredicate(t *testing.T) {
	n, rounds := 5, 3
	for seed := int64(0); seed < 15; seed++ {
		out, err := RunRounds(n, rounds, swmr.Config{Chooser: swmr.Seeded(seed)}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Trace.Len() != rounds {
			t.Fatalf("seed %d: %d rounds", seed, out.Trace.Len())
		}
		if err := hoalg.ImmediateSnapshot(n).Compile().Check(out.Trace); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, out.Trace)
		}
	}
}

func TestOrderedBlocksAdversaryMatchesIIS(t *testing.T) {
	// The abstract adversary realizes the same predicate as the
	// operational object.
	n := 7
	for seed := int64(0); seed < 25; seed++ {
		tr, err := core.CollectTrace(n, 5, adversary.OrderedBlocks(n, seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := hoalg.ImmediateSnapshot(n).Compile().Check(tr); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestIISIsStrictSubmodelOfSnapshot(t *testing.T) {
	// Implication: immediate ⇒ item 5 (with the wait-free budget) —
	// proven exhaustively for n=3; strictness: a snapshot trace violating
	// immediacy exists.
	_, satisfying, err := predicate.ExhaustiveImplies(3, 1,
		hoalg.ImmediateSnapshot(3).Compile(), hoalg.AtomicSnapshot(2).Compile())
	if err != nil {
		t.Fatal(err)
	}
	if satisfying == 0 {
		t.Fatal("vacuous")
	}
	_, witnesses, err := predicate.ExhaustiveWitnesses(3, 1,
		hoalg.AtomicSnapshot(2).Compile(), hoalg.Immediacy().Compile())
	if err != nil {
		t.Fatal(err)
	}
	if witnesses == 0 {
		t.Fatal("snapshot should NOT imply immediacy")
	}
}
