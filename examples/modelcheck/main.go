// Model-check RRFD systems over EVERY schedule.
//
// Two acts. First, the SWMR shared-memory substrate: register operations
// serialize through a pluggable scheduler, so the schedule space of a
// small protocol instance can be enumerated exhaustively — every
// interleaving of every crash pattern. This verifies the paper's two
// adopt-commit properties (§4.2) across the whole space.
//
// Second, the generalized explorer (internal/mc): instead of interleaving
// register operations, enumerate every round plan the eq. (3) adversary
// model allows and execute the quorum-gated k-set algorithm under each.
// The honest decision rule survives the whole space; a planted
// wrong-quorum-size bug is caught, shrunk to a minimal counterexample,
// and replayed from its portable choice string.
//
//	go run ./examples/modelcheck
package main

import (
	"errors"
	"fmt"
	"log"

	rrfd "repro"
)

// explore model-checks run over every shared-memory schedule, one at a
// time (the runs below record what they saw), and fails on a violation.
func explore(what string, run func(ch rrfd.SharedChooser) error) int {
	res, err := rrfd.MCExplore(rrfd.MCOptions{MaxSchedules: 100000, Workers: 1}, func(ctx *rrfd.MCCtx) error {
		return run(func(_ int, runnable []rrfd.PID) int { return ctx.Choose(len(runnable)) })
	})
	if err == nil && res.Counterexample != nil {
		err = res.Counterexample.Err
	}
	if err != nil {
		log.Fatalf("%s: %v", what, err)
	}
	return res.Schedules
}

func main() {
	inputs := []rrfd.Value{"left", "right"}

	runOnce := func(ch rrfd.SharedChooser, crash map[rrfd.PID]int) (map[rrfd.PID]rrfd.AdoptCommitOutcome, error) {
		res, err := rrfd.RunShared(len(inputs), rrfd.SharedConfig{Chooser: ch, Crash: crash},
			func(p *rrfd.SharedProc) (rrfd.Value, error) {
				o, err := rrfd.AdoptCommit(p, "mc", inputs[p.Me])
				if err != nil {
					return nil, err
				}
				return o, nil
			})
		if err != nil {
			return nil, err
		}
		outs := make(map[rrfd.PID]rrfd.AdoptCommitOutcome)
		for pid, v := range res.Values {
			outs[pid] = v.(rrfd.AdoptCommitOutcome)
		}
		for pid, e := range res.Errs {
			if !errors.Is(e, rrfd.ErrCrashed) {
				return nil, fmt.Errorf("process %d: %w", pid, e)
			}
		}
		return outs, nil
	}

	// Property check across the full schedule space, for every crash
	// point of process 0 (−1 = no crash).
	totalSchedules := 0
	sawCommit, sawAdopt := false, false
	for crashAt := -1; crashAt <= 6; crashAt++ {
		var crash map[rrfd.PID]int
		if crashAt >= 0 {
			crash = map[rrfd.PID]int{0: crashAt}
		}
		totalSchedules += explore(fmt.Sprintf("crashAt=%d", crashAt), func(ch rrfd.SharedChooser) error {
			outs, err := runOnce(ch, crash)
			if err != nil {
				return err
			}
			// Property 2: a commit forces every output value.
			for p, o := range outs {
				if o.Grade != rrfd.Commit {
					sawAdopt = true
					continue
				}
				sawCommit = true
				for q, o2 := range outs {
					if o2.Value != o.Value {
						return fmt.Errorf("p%d committed %v but p%d holds %v", p, o.Value, q, o2.Value)
					}
				}
			}
			// Validity: outputs are proposals.
			for p, o := range outs {
				if o.Value != "left" && o.Value != "right" {
					return fmt.Errorf("p%d output %v", p, o.Value)
				}
			}
			return nil
		})
	}
	fmt.Printf("verified adopt-commit over %d schedules (8 crash patterns × all interleavings)\n", totalSchedules)
	fmt.Printf("both grades reachable: commit=%v adopt=%v — the relation, not a function\n", sawCommit, sawAdopt)

	// The same machinery proves convergence: unanimous proposals commit
	// in EVERY schedule.
	count := explore("unanimity", func(ch rrfd.SharedChooser) error {
		res, err := rrfd.RunShared(2, rrfd.SharedConfig{Chooser: ch},
			func(p *rrfd.SharedProc) (rrfd.Value, error) {
				o, err := rrfd.AdoptCommit(p, "u", "same")
				if err != nil {
					return nil, err
				}
				return o, nil
			})
		if err != nil {
			return err
		}
		for pid, v := range res.Values {
			if o := v.(rrfd.AdoptCommitOutcome); o.Grade != rrfd.Commit || o.Value != "same" {
				return fmt.Errorf("p%d: %+v under unanimity", pid, o)
			}
		}
		return nil
	})
	fmt.Printf("convergence proven over %d unanimous-input schedules: all commit\n", count)

	// Act two: the generalized explorer over adversary schedules. Every
	// round the eq. (3) model allows 27 suspicion plans for n=3, f=1;
	// the explorer executes the algorithm under each, pruning subtrees
	// whose full system state (algorithms + adversary) was already
	// exhausted.
	n, f := 3, 1
	enum, err := rrfd.EnumPerRoundBudget(n, f)
	if err != nil {
		log.Fatal(err)
	}
	mcInputs := []rrfd.Value{0, 1, 2}
	spec := func(factory rrfd.Factory) rrfd.MCRunSpec {
		return rrfd.MCRunSpec{
			N: n, Inputs: mcInputs, Factory: factory,
			Oracle: func(ctx *rrfd.MCCtx) rrfd.Oracle {
				return rrfd.EnumeratedAdversary(ctx, n, enum)
			},
			Props: []rrfd.MCProperty{
				rrfd.MCValidity(mcInputs),
				rrfd.MCKAgreement(f + 1),
			},
			Mark: true,
		}
	}

	res, err := rrfd.MCExplore(rrfd.MCOptions{}, rrfd.MCCheckRun(spec(rrfd.QuorumKSet(f))))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquorum k-set verified under eq. (3): %d adversary schedules, exhausted=%v\n",
		res.Schedules, res.Exhausted)

	res, err = rrfd.MCExplore(rrfd.MCOptions{}, rrfd.MCCheckRun(spec(rrfd.QuorumKSetBuggy(f))))
	if err != nil {
		log.Fatal(err)
	}
	cx := res.Counterexample
	if cx == nil {
		log.Fatal("planted wrong-quorum bug not found")
	}
	replay := rrfd.FormatChoices(cx.Choices)
	fmt.Printf("planted wrong-quorum bug caught after %d schedules: %v\n", res.Schedules, cx.Err)
	fmt.Printf("minimal counterexample (%d choice): %s\n", len(cx.Choices), replay)

	// The choice string is the portable reproducer: parse and re-run it.
	choices, err := rrfd.ParseChoices(replay)
	if err != nil {
		log.Fatal(err)
	}
	if err := rrfd.MCReplay(choices, rrfd.MCCheckRun(spec(rrfd.QuorumKSetBuggy(f)))); err != nil {
		fmt.Printf("replayed %s: violation reproduced\n", replay)
	} else {
		log.Fatal("counterexample did not replay")
	}
}
