package adoptcommit

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/swmr"
)

// exploreAll model-checks run over every schedule and fails the test on
// a violation or an un-exhausted space.
func exploreAll(t *testing.T, what string, run func(ch swmr.Chooser) error) int {
	t.Helper()
	res, err := mc.Explore(mc.Options{MaxSchedules: 100000}, func(ctx *mc.Ctx) error {
		return run(func(_ int, runnable []core.PID) int { return ctx.Choose(len(runnable)) })
	})
	if err == nil && res.Counterexample != nil {
		err = res.Counterexample.Err
	}
	if err != nil || !res.Exhausted {
		t.Fatalf("%s after %d schedules (exhausted %v): %v", what, res.Schedules, res.Exhausted, err)
	}
	return res.Schedules
}

// runInstance executes one adopt-commit instance with the given inputs and
// returns the per-process outcomes of the processes that finished.
func runInstance(t *testing.T, inputs []core.Value, cfg swmr.Config) map[core.PID]Outcome {
	t.Helper()
	out, err := runInstanceErr(inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func runInstanceErr(inputs []core.Value, cfg swmr.Config) (map[core.PID]Outcome, error) {
	res, err := swmr.Run(len(inputs), cfg, func(p *swmr.Proc) (core.Value, error) {
		o, err := Run(p, "t", inputs[p.Me])
		if err != nil {
			return nil, err
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	for pid, procErr := range res.Errs {
		if !errors.Is(procErr, swmr.ErrCrashed) {
			return nil, fmt.Errorf("process %d: %w", pid, procErr)
		}
	}
	outs := make(map[core.PID]Outcome, len(res.Values))
	for pid, v := range res.Values {
		outs[pid] = v.(Outcome)
	}
	return outs, nil
}

// checkProperties validates the two adopt-commit properties plus validity
// against the outcomes of live processes.
func checkProperties(inputs []core.Value, outs map[core.PID]Outcome) error {
	inputSet := make(map[core.Value]bool, len(inputs))
	allSame := true
	for _, v := range inputs {
		inputSet[v] = true
		if v != inputs[0] {
			allSame = false
		}
	}
	// Validity: outputs are proposals.
	for pid, o := range outs {
		if !inputSet[o.Value] {
			return fmt.Errorf("process %d output non-proposal %v", pid, o.Value)
		}
	}
	// Property 1: unanimous proposal v ⇒ all commit v.
	if allSame && len(inputs) > 0 {
		for pid, o := range outs {
			if o.Grade != Commit || o.Value != inputs[0] {
				return fmt.Errorf("unanimous input %v but process %d got %s %v",
					inputs[0], pid, o.Grade, o.Value)
			}
		}
	}
	// Property 2: any commit of v ⇒ every output has value v.
	for pid, o := range outs {
		if o.Grade != Commit {
			continue
		}
		for pid2, o2 := range outs {
			if o2.Value != o.Value {
				return fmt.Errorf("process %d committed %v but process %d holds %v",
					pid, o.Value, pid2, o2.Value)
			}
		}
	}
	return nil
}

func vals(vs ...int) []core.Value {
	out := make([]core.Value, len(vs))
	for i, v := range vs {
		out[i] = v
	}
	return out
}

func TestUnanimousCommits(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		inputs := make([]core.Value, n)
		for i := range inputs {
			inputs[i] = 42
		}
		outs := runInstance(t, inputs, swmr.Config{Chooser: swmr.Seeded(int64(n))})
		if err := checkProperties(inputs, outs); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, o := range outs {
			if o.Grade != Commit || o.Value != 42 {
				t.Fatalf("n=%d: %v", n, o)
			}
		}
	}
}

func TestMixedInputsSeededSweep(t *testing.T) {
	cases := [][]core.Value{
		vals(1, 2),
		vals(1, 1, 2),
		vals(1, 2, 3),
		vals(1, 2, 2, 1),
		vals(5, 5, 5, 7, 5),
	}
	for _, inputs := range cases {
		for seed := int64(0); seed < 50; seed++ {
			outs := runInstance(t, inputs, swmr.Config{Chooser: swmr.Seeded(seed)})
			if err := checkProperties(inputs, outs); err != nil {
				t.Fatalf("inputs %v seed %d: %v", inputs, seed, err)
			}
		}
	}
}

func TestExhaustiveTwoProcs(t *testing.T) {
	// Model-check every schedule of a 2-process instance with differing
	// proposals: 6 ops each → C(12,6) = 924 interleavings.
	inputs := vals(1, 2)
	count := exploreAll(t, "two procs", func(ch swmr.Chooser) error {
		outs, err := runInstanceErr(inputs, swmr.Config{Chooser: ch})
		if err != nil {
			return err
		}
		return checkProperties(inputs, outs)
	})
	if count != 924 {
		t.Fatalf("explored %d schedules, want 924", count)
	}
}

func TestExhaustiveTwoProcsWithCrash(t *testing.T) {
	// Every schedule × every crash point of p0 (0..6 completed ops): the
	// survivor must still satisfy the properties restricted to live
	// processes (wait-freedom: p1 always terminates).
	inputs := vals(1, 2)
	for crashAt := 0; crashAt <= 6; crashAt++ {
		cfg := swmr.Config{Crash: map[core.PID]int{0: crashAt}}
		exploreAll(t, fmt.Sprintf("crashAt=%d", crashAt), func(ch swmr.Chooser) error {
			cfg := cfg
			cfg.Chooser = ch
			outs, err := runInstanceErr(inputs, cfg)
			if err != nil {
				return err
			}
			if _, ok := outs[1]; !ok {
				return errors.New("survivor did not terminate")
			}
			return checkProperties(inputs, outs)
		})
	}
}

func TestWaitFreeOpCount(t *testing.T) {
	// The protocol performs exactly 2n+2 register operations per process.
	n := 4
	res, err := swmr.Run(n, swmr.Config{Chooser: swmr.Seeded(8)}, func(p *swmr.Proc) (core.Value, error) {
		return Run(p, "t", int(p.Me))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := n * (2*n + 2)
	if res.Steps != want {
		t.Fatalf("total steps = %d, want %d", res.Steps, want)
	}
}

func TestIndependentInstances(t *testing.T) {
	// Two named instances must not interfere: unanimity in instance "a"
	// commits there even though instance "b" is contested.
	n := 3
	res, err := swmr.Run(n, swmr.Config{Chooser: swmr.Seeded(4)}, func(p *swmr.Proc) (core.Value, error) {
		oa, err := Run(p, "a", "same")
		if err != nil {
			return nil, err
		}
		ob, err := Run(p, "b", int(p.Me))
		if err != nil {
			return nil, err
		}
		return [2]Outcome{oa, ob}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid, v := range res.Values {
		pair := v.([2]Outcome)
		if pair[0].Grade != Commit || pair[0].Value != "same" {
			t.Fatalf("process %d instance a: %v", pid, pair[0])
		}
	}
}

func TestQuickRandomInputsAndSchedules(t *testing.T) {
	// Property-based: arbitrary small input vectors and seeds preserve the
	// adopt-commit contract.
	prop := func(raw []uint8, seed int64) bool {
		n := len(raw)%5 + 1
		inputs := make([]core.Value, n)
		for i := range inputs {
			v := 0
			if i < len(raw) {
				v = int(raw[i]) % 3
			}
			inputs[i] = v
		}
		outs, err := runInstanceErr(inputs, swmr.Config{Chooser: swmr.Seeded(seed)})
		if err != nil {
			return false
		}
		return checkProperties(inputs, outs) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectProposals(t *testing.T) {
	n := 3
	res, err := swmr.Run(n, swmr.Config{Chooser: swmr.Seeded(4)}, func(p *swmr.Proc) (core.Value, error) {
		if _, err := Run(p, "t", int(p.Me)); err != nil {
			return nil, err
		}
		return CollectProposals(p, "t")
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid, v := range res.Values {
		props := v.([]core.Value)
		// After everyone finished phase 1, all proposals are visible to a
		// process that finished last; at minimum the reader's own is.
		if props[pid] != int(pid) {
			t.Fatalf("process %d sees own proposal %v", pid, props[pid])
		}
	}
}

func TestGradeString(t *testing.T) {
	if Adopt.String() != "adopt" || Commit.String() != "commit" {
		t.Fatal("Grade.String broken")
	}
	if Grade(9).String() != "Grade(9)" {
		t.Fatal("unknown grade formatting broken")
	}
}
