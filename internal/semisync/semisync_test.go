package semisync

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/mc"
)

func identityInputs(n int) []core.Value {
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	return inputs
}

func TestTwoStepSatisfiesEq5(t *testing.T) {
	// Theorem 5.1: the two-step round implementation gives every process
	// the same suspect set in every round.
	n, rounds := 6, 4
	for seed := int64(0); seed < 40; seed++ {
		out, err := RunTwoStep(n, rounds, Config{Chooser: core.Seeded(seed)}, identityInputs(n))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Trace.Len() != rounds {
			t.Fatalf("seed %d: trace has %d rounds", seed, out.Trace.Len())
		}
		if err := hoalg.Identical().Compile().Check(out.Trace); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, out.Trace)
		}
		if err := hoalg.KSetEq3(1).Compile().Check(out.Trace); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestTwoStepConsensusInTwoSteps(t *testing.T) {
	// The headline: consensus decided after exactly 2 steps per process,
	// for every schedule tried.
	n := 8
	inputs := identityInputs(n)
	for seed := int64(0); seed < 60; seed++ {
		out, err := RunTwoStep(n, 1, Config{Chooser: core.Seeded(seed)}, inputs)
		if err != nil {
			t.Fatal(err)
		}
		res := &core.Result{
			Outputs:   out.Outcome.Values,
			DecidedAt: map[core.PID]int{},
			Crashed:   out.Outcome.Crashed,
		}
		for p := range out.Outcome.Values {
			res.DecidedAt[p] = 1
		}
		if err := agreement.Validate(res, inputs, 1, 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for p, steps := range out.Outcome.DecidedAtStep {
			if steps != 2 {
				t.Fatalf("seed %d: process %d decided after %d steps, want 2", seed, p, steps)
			}
		}
	}
}

func TestTwoStepWithCrashes(t *testing.T) {
	// Crashes are clean (atomic steps): survivors still satisfy eq. (5)
	// and agree.
	n := 6
	inputs := identityInputs(n)
	for seed := int64(0); seed < 30; seed++ {
		out, err := RunTwoStep(n, 2, Config{
			Chooser: core.Seeded(seed),
			crash:   map[core.PID]int{0: 1, 3: 0},
		}, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := hoalg.Identical().Compile().Check(out.Trace); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, out.Trace)
		}
		distinct := make(map[core.Value]bool)
		for _, v := range out.Outcome.Values {
			distinct[v] = true
		}
		if len(distinct) > 1 {
			t.Fatalf("seed %d: survivors disagree: %v", seed, out.Outcome.Values)
		}
	}
}

func TestTwoStepExactlyOneBroadcasterPerRound(t *testing.T) {
	// In the strict delivery-before-next-step model the first process to
	// open a round is the only broadcaster: D(·,r) = S minus one process.
	n, rounds := 5, 3
	out, err := RunTwoStep(n, rounds, Config{Chooser: core.Seeded(9)}, identityInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range out.Trace.Rounds {
		first := true
		var d core.Set
		rec.Active.ForEach(func(p core.PID) {
			if first {
				d, first = rec.Suspects[p], false
			}
		})
		if d.Count() != n-1 {
			t.Fatalf("round %d: |D| = %d, want n-1 = %d", rec.R, d.Count(), n-1)
		}
	}
}

func TestRelayBaselineConsensus(t *testing.T) {
	// The 2n-step baseline decides the chain value (p0's input) after
	// exactly 2n own steps.
	for _, n := range []int{2, 4, 8, 16} {
		inputs := identityInputs(n)
		for seed := int64(0); seed < 10; seed++ {
			out, err := Run(n, Config{Chooser: core.Seeded(seed)}, RelayFactory(), inputs)
			if err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			for p := core.PID(0); int(p) < n; p++ {
				v, ok := out.Values[p]
				if !ok {
					t.Fatalf("n=%d seed=%d: process %d undecided", n, seed, p)
				}
				if v != 0 {
					t.Fatalf("n=%d seed=%d: process %d decided %v, want 0", n, seed, p, v)
				}
				if got := out.DecidedAtStep[p]; got < 2*n {
					t.Fatalf("n=%d: process %d decided after %d steps (< 2n = %d)", n, p, got, 2*n)
				}
			}
		}
	}
}

func TestRelayVersusTwoStepShape(t *testing.T) {
	// The paper's quantitative claim: 2 steps vs 2n steps — the speedup
	// grows linearly with n.
	for _, n := range []int{4, 8, 16, 32} {
		inputs := identityInputs(n)
		fast, err := RunTwoStep(n, 1, Config{Chooser: core.RoundRobin()}, inputs)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Run(n, Config{Chooser: core.RoundRobin()}, RelayFactory(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		fs, ss := fast.Outcome.MaxDecisionSteps(), slow.MaxDecisionSteps()
		if fs != 2 {
			t.Fatalf("n=%d: two-step decided in %d steps", n, fs)
		}
		if ss < 2*n {
			t.Fatalf("n=%d: relay decided in %d steps, want ≥ 2n = %d", n, ss, 2*n)
		}
		if ratio := float64(ss) / float64(fs); ratio < float64(n)*0.9 {
			t.Fatalf("n=%d: speedup %.1f below the linear-in-n shape", n, ratio)
		}
	}
}

func TestTwoStepExhaustiveProof(t *testing.T) {
	// PROOF of Theorem 5.1 for small systems: enumerate EVERY schedule of
	// atomic steps (mc's explorer drives any chooser) and require eq. (5),
	// unanimity, and 2-step decisions in each.
	// n=3, one round = 6 steps → at most 3^6 schedules; n=4 → 4^8.
	for _, n := range []int{2, 3, 4} {
		inputs := identityInputs(n)
		res, err := mc.Explore(mc.Options{MaxSchedules: 200000}, func(ctx *mc.Ctx) error {
			ch := ctx.Pick
			out, err := RunTwoStep(n, 1, Config{Chooser: ch}, inputs)
			if err != nil {
				return err
			}
			if err := hoalg.Identical().Compile().Check(out.Trace); err != nil {
				return err
			}
			distinct := make(map[core.Value]bool)
			for _, v := range out.Outcome.Values {
				distinct[v] = true
			}
			if len(distinct) != 1 {
				return fmt.Errorf("disagreement: %v", out.Outcome.Values)
			}
			for p, s := range out.Outcome.DecidedAtStep {
				if s != 2 {
					return fmt.Errorf("process %d decided after %d steps", p, s)
				}
			}
			return nil
		})
		if err == nil && res.Counterexample != nil {
			err = res.Counterexample.Err
		}
		if err != nil || !res.Exhausted {
			t.Fatalf("n=%d after %d schedules (exhausted %v): %v", n, res.Schedules, res.Exhausted, err)
		}
		t.Logf("n=%d: Theorem 5.1 verified over all %d schedules", n, res.Schedules)
	}
}

func TestQuickTwoStepProperties(t *testing.T) {
	// Property-based: for arbitrary small n and schedules, the two-step
	// protocol satisfies eq. (5), unanimity, and the 2-step decision
	// count.
	prop := func(rawN uint8, seed int64) bool {
		n := int(rawN%7) + 2
		out, err := RunTwoStep(n, 2, Config{Chooser: core.Seeded(seed)}, identityInputs(n))
		if err != nil {
			return false
		}
		if hoalg.Identical().Compile().Check(out.Trace) != nil {
			return false
		}
		distinct := make(map[core.Value]bool)
		for _, v := range out.Outcome.Values {
			distinct[v] = true
		}
		if len(distinct) != 1 {
			return false
		}
		for _, s := range out.Outcome.DecidedAtStep {
			if s != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(0, Config{}, RelayFactory(), nil); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := Run(3, Config{}, RelayFactory(), identityInputs(2)); err == nil {
		t.Fatal("expected error for mismatched inputs")
	}
}

func TestStepBudget(t *testing.T) {
	// A stepper that never halts must trip the budget, and the error must
	// name the budget and every still-undecided live process.
	factory := func(me core.PID, n int, input core.Value) Stepper { return spinStepper{} }
	_, err := Run(2, Config{maxSteps: 50}, factory, identityInputs(2))
	if err == nil {
		t.Fatal("expected step budget error")
	}
	var sb *StepBudgetError
	if !errors.As(err, &sb) {
		t.Fatalf("err = %T %v, want *StepBudgetError", err, err)
	}
	if sb.Budget != 50 {
		t.Fatalf("budget = %d, want 50", sb.Budget)
	}
	if len(sb.Undecided) != 2 || sb.Undecided[0] != 0 || sb.Undecided[1] != 1 {
		t.Fatalf("undecided = %v, want [0 1]", sb.Undecided)
	}
}

type spinStepper struct{}

func (spinStepper) Step(received []Msg) StepResult { return StepResult{} }

// TestRunAllocsPerStep pins the scheduler loop: a step whose stepper
// allocates nothing allocates nothing either, since the chooser's option
// list is one slice for the whole run.
func TestRunAllocsPerStep(t *testing.T) {
	factory := func(core.PID, int, core.Value) Stepper { return spinStepper{} }
	inputs := identityInputs(4)
	run := func(steps int) float64 {
		return testing.AllocsPerRun(5, func() {
			Run(4, Config{Chooser: core.RoundRobin(), maxSteps: steps}, factory, inputs)
		})
	}
	// Measured 0; a fresh option list per step was 1.
	if perStep := (run(2000) - run(1000)) / 1000; perStep > 0.01 {
		t.Fatalf("a step allocated %.3f times, want 0", perStep)
	}
}
