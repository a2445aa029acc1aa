package swmr

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mc"
)

// explore runs mc.Explore over every schedule of run, one schedule per
// choice sequence, and fails the test on a violation.
func explore(t *testing.T, run func(ch Chooser) error) *mc.Result {
	t.Helper()
	res, err := mc.Explore(mc.Options{Workers: 1}, func(ctx *mc.Ctx) error {
		return run(func(_ int, runnable []core.PID) int { return ctx.Choose(len(runnable)) })
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatal(res.Counterexample)
	}
	return res
}

func TestWriteReadRoundTrip(t *testing.T) {
	out, err := Run(2, Config{}, func(p *Proc) (core.Value, error) {
		if err := p.Write("x", int(p.Me)+100); err != nil {
			return nil, err
		}
		// Spin until the other process's register is visible.
		other := core.PID(1 - p.Me)
		for {
			v, err := p.Read(other, "x")
			if err != nil {
				return nil, err
			}
			if v != Bottom {
				return v, nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Values[0] != 101 || out.Values[1] != 100 {
		t.Fatalf("Values = %v", out.Values)
	}
	if len(out.Errs) != 0 {
		t.Fatalf("Errs = %v", out.Errs)
	}
}

func TestReadUnwrittenIsBottom(t *testing.T) {
	out, err := Run(1, Config{}, func(p *Proc) (core.Value, error) {
		return p.Read(0, "nothing")
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Values[0] != Bottom {
		t.Fatalf("read of unwritten register = %v, want Bottom", out.Values[0])
	}
}

func TestCollect(t *testing.T) {
	out, err := Run(3, Config{}, func(p *Proc) (core.Value, error) {
		if err := p.Write("v", int(p.Me)); err != nil {
			return nil, err
		}
		for {
			vals, err := p.Collect("v")
			if err != nil {
				return nil, err
			}
			missing := false
			for _, v := range vals {
				if v == Bottom {
					missing = true
				}
			}
			if !missing {
				return fmt.Sprintf("%v", vals), nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range out.Values {
		if v != "[0 1 2]" {
			t.Fatalf("process %d collected %v", p, v)
		}
	}
}

func TestCrashInjection(t *testing.T) {
	// p1 crashes on its very first operation; p0 must still finish.
	out, err := Run(2, Config{Crash: map[core.PID]int{1: 0}}, func(p *Proc) (core.Value, error) {
		if err := p.Write("x", int(p.Me)); err != nil {
			return nil, err
		}
		return int(p.Me), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out.Errs[1], ErrCrashed) {
		t.Fatalf("p1 err = %v, want ErrCrashed", out.Errs[1])
	}
	if out.Values[0] != 0 {
		t.Fatalf("p0 = %v", out.Values[0])
	}
	if !out.Crashed.Equal(core.SetOf(2, 1)) {
		t.Fatalf("Crashed = %s", out.Crashed)
	}
	if _, ok := out.Values[1]; ok || len(out.Values) != 1 {
		t.Fatalf("Values = %v, want only p0's", out.Values)
	}
}

func TestCrashAfterKOps(t *testing.T) {
	// p0 completes exactly 2 ops then crashes; its writes must be visible.
	out, err := Run(2, Config{Crash: map[core.PID]int{0: 2}}, func(p *Proc) (core.Value, error) {
		if p.Me == 0 {
			if err := p.Write("a", "first"); err != nil {
				return nil, err
			}
			if err := p.Write("a", "second"); err != nil {
				return nil, err
			}
			if err := p.Write("a", "third"); err != nil {
				return nil, err
			}
			return "unreachable", nil
		}
		for {
			v, err := p.Read(0, "a")
			if err != nil {
				return nil, err
			}
			if v == "second" {
				return v, nil
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(out.Errs[0], ErrCrashed) {
		t.Fatalf("p0 err = %v", out.Errs[0])
	}
	if out.Values[1] != "second" {
		t.Fatalf("p1 saw %v, want second (crash after 2 ops)", out.Values[1])
	}
}

func TestRoundRobinChooser(t *testing.T) {
	// Fairness: with three single-op processes, a chooser that cycles
	// through the pending ones must let all of them run (each performs
	// its op).
	next := 0
	roundRobin := func(step int, runnable []core.PID) int {
		next++
		return next % len(runnable)
	}
	out, err := Run(3, Config{Chooser: roundRobin}, func(p *Proc) (core.Value, error) {
		return nil, p.Write("x", int(p.Me))
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Steps != 3 {
		t.Fatalf("steps = %d", out.Steps)
	}
}

func TestMaxStepsLivelock(t *testing.T) {
	// A body that spins forever must trip the step budget, and Run must
	// still unwind every goroutine.
	_, err := Run(2, Config{maxSteps: 100}, func(p *Proc) (core.Value, error) {
		for {
			if _, err := p.Read(0, "never"); err != nil {
				return nil, err
			}
		}
	})
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
}

func TestDeterministicScheduling(t *testing.T) {
	run := func() string {
		out, err := Run(3, Config{Chooser: Seeded(42)}, func(p *Proc) (core.Value, error) {
			if err := p.Write("v", int(p.Me)); err != nil {
				return nil, err
			}
			vals, err := p.Collect("v")
			if err != nil {
				return nil, err
			}
			return fmt.Sprintf("%v", vals), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v|%d", out.Values, out.Steps)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different executions:\n%s\n%s", a, b)
	}
}

func TestSchedulerActuallyInterleaves(t *testing.T) {
	// Different seeds should produce different collected views somewhere.
	results := make(map[string]bool)
	for seed := int64(0); seed < 30; seed++ {
		out, err := Run(3, Config{Chooser: Seeded(seed)}, func(p *Proc) (core.Value, error) {
			if err := p.Write("v", int(p.Me)); err != nil {
				return nil, err
			}
			vals, err := p.Collect("v")
			if err != nil {
				return nil, err
			}
			return fmt.Sprintf("%v", vals), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		results[fmt.Sprintf("%v", out.Values)] = true
	}
	if len(results) < 2 {
		t.Fatalf("30 seeds produced only %d distinct executions", len(results))
	}
}

func TestExploreCountsInterleavings(t *testing.T) {
	// Two processes, two ops each: the schedule tree has C(4,2) = 6
	// leaves (interleavings of two length-2 sequences).
	res := explore(t, func(ch Chooser) error {
		_, err := Run(2, Config{Chooser: ch}, func(p *Proc) (core.Value, error) {
			if err := p.Write("a", 1); err != nil {
				return nil, err
			}
			if err := p.Write("b", 2); err != nil {
				return nil, err
			}
			return nil, nil
		})
		return err
	})
	if res.Schedules != 6 || !res.Exhausted {
		t.Fatalf("explored %d schedules (exhausted %v), want all 6", res.Schedules, res.Exhausted)
	}
}

func TestExploreFindsRace(t *testing.T) {
	// Classic lost-update shape: both processes read a counter register
	// owned by p0 then p0 writes. Exploration must find a schedule where
	// p1 reads Bottom and one where it reads the written value.
	sawBottom, sawValue := false, false
	explore(t, func(ch Chooser) error {
		out, err := Run(2, Config{Chooser: ch}, func(p *Proc) (core.Value, error) {
			if p.Me == 0 {
				return nil, p.Write("c", 7)
			}
			return p.Read(0, "c")
		})
		if err != nil {
			return err
		}
		if out.Values[1] == Bottom {
			sawBottom = true
		} else {
			sawValue = true
		}
		return nil
	})
	if !sawBottom || !sawValue {
		t.Fatalf("exploration incomplete: bottom=%v value=%v", sawBottom, sawValue)
	}
}

func TestPriorityGroupsOrdering(t *testing.T) {
	// With strict priority p2 > p1 > p0 and single-op bodies, the write
	// order must be exactly 2, 1, 0.
	var order []core.PID
	_, err := Run(3, Config{Chooser: PriorityGroups([]core.PID{2}, []core.PID{1}, []core.PID{0})},
		func(p *Proc) (core.Value, error) {
			_, err := p.Atomic("log", func(state core.Value) (core.Value, core.Value) {
				order = append(order, p.Me)
				return nil, nil
			})
			return nil, err
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Fatalf("order = %v, want [2 1 0]", order)
	}
}

func TestPriorityGroupsUngroupedRunLast(t *testing.T) {
	var order []core.PID
	_, err := Run(3, Config{Chooser: PriorityGroups([]core.PID{1})},
		func(p *Proc) (core.Value, error) {
			_, err := p.Atomic("log", func(state core.Value) (core.Value, core.Value) {
				order = append(order, p.Me)
				return nil, nil
			})
			return nil, err
		})
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 1 {
		t.Fatalf("order = %v, want p1 first", order)
	}
}

func TestAtomicObject(t *testing.T) {
	// A shared counter: each process increments atomically 10 times; the
	// final value must be exactly 3×10 with no lost updates.
	out, err := Run(3, Config{Chooser: Seeded(5)}, func(p *Proc) (core.Value, error) {
		var last core.Value
		for i := 0; i < 10; i++ {
			v, err := p.Atomic("ctr", func(state core.Value) (core.Value, core.Value) {
				c, _ := state.(int)
				return c + 1, c + 1
			})
			if err != nil {
				return nil, err
			}
			last = v
		}
		return last, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	max := 0
	for _, v := range out.Values {
		if v.(int) > max {
			max = v.(int)
		}
	}
	if max != 30 {
		t.Fatalf("final counter = %d, want 30", max)
	}
}

func TestAtomicKSetObject(t *testing.T) {
	// The Theorem 3.3 oracle shape: a k-set-consensus object that stores
	// the first k proposals and answers with the first stored one.
	k := 2
	out, err := Run(5, Config{Chooser: Seeded(9)}, func(p *Proc) (core.Value, error) {
		return p.Atomic("kset", func(state core.Value) (core.Value, core.Value) {
			stored, _ := state.([]core.Value)
			if len(stored) < k {
				stored = append(stored, int(p.Me))
			}
			return stored, stored[0]
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	distinct := make(map[core.Value]bool)
	for _, v := range out.Values {
		distinct[v] = true
	}
	if len(distinct) > k {
		t.Fatalf("k-set object returned %d distinct values", len(distinct))
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(0, Config{}, func(p *Proc) (core.Value, error) { return nil, nil }); err == nil {
		t.Fatal("expected error for n=0")
	}
}

// TestBadChooserUnwindsEveryBody: a chooser answering out of range on its
// third call is an error — and every body must still return, failed with
// ErrCrashed.
func TestBadChooserUnwindsEveryBody(t *testing.T) {
	const n = 3
	var bodies sync.WaitGroup
	bodies.Add(n)
	calls := 0
	done := make(chan error, 1)
	go func() {
		_, err := Run(n, Config{Chooser: func(step int, runnable []core.PID) int {
			if calls++; calls == 3 {
				return len(runnable)
			}
			return 0
		}}, func(p *Proc) (core.Value, error) {
			defer bodies.Done()
			for {
				if err := p.Write("r", 1); err != nil {
					return nil, err
				}
			}
		})
		bodies.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "chooser returned 3 for 3 runnable") {
			t.Fatalf("err = %v, want the chooser error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bodies still parked after a bad chooser answer")
	}
}
