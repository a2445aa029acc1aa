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

	"repro/internal/adoptcommit"
	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/mc"
	"repro/internal/swmr"
)

// explore model-checks run over every shared-memory schedule, one at a
// time (the runs below record what they saw), and fails on a violation.
func explore(what string, run func(ch core.Chooser) error) int {
	res, err := mc.Explore(mc.Options{MaxSchedules: 100000, Workers: 1}, func(ctx *mc.Ctx) error {
		return run(ctx.Pick)
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
	inputs := []core.Value{"left", "right"}

	runOnce := func(ch core.Chooser, crash map[core.PID]int) (map[core.PID]adoptcommit.Outcome, error) {
		res, err := swmr.Run(len(inputs), swmr.Config{Chooser: ch, Crash: crash},
			func(p *swmr.Proc) (core.Value, error) {
				o, err := adoptcommit.Run(p, "mc", inputs[p.Me])
				if err != nil {
					return nil, err
				}
				return o, nil
			})
		if err != nil {
			return nil, err
		}
		outs := make(map[core.PID]adoptcommit.Outcome)
		for pid, v := range res.Values {
			outs[pid] = v.(adoptcommit.Outcome)
		}
		for pid, e := range res.Errs {
			if !errors.Is(e, swmr.ErrCrashed) {
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
		var crash map[core.PID]int
		if crashAt >= 0 {
			crash = map[core.PID]int{0: crashAt}
		}
		totalSchedules += explore(fmt.Sprintf("crashAt=%d", crashAt), func(ch core.Chooser) error {
			outs, err := runOnce(ch, crash)
			if err != nil {
				return err
			}
			// Property 2: a commit forces every output value.
			for p, o := range outs {
				if o.Grade != adoptcommit.Commit {
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
	count := explore("unanimity", func(ch core.Chooser) error {
		res, err := swmr.Run(2, swmr.Config{Chooser: ch},
			func(p *swmr.Proc) (core.Value, error) {
				o, err := adoptcommit.Run(p, "u", "same")
				if err != nil {
					return nil, err
				}
				return o, nil
			})
		if err != nil {
			return err
		}
		for pid, v := range res.Values {
			if o := v.(adoptcommit.Outcome); o.Grade != adoptcommit.Commit || o.Value != "same" {
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
	enum, err := hoalg.PerRound(f).CompileEnum(n)
	if err != nil {
		log.Fatal(err)
	}
	mcInputs := []core.Value{0, 1, 2}
	spec := func(factory core.Factory) mc.RunSpec {
		return mc.RunSpec{
			N: n, Inputs: mcInputs, Factory: factory,
			Oracle: func(ctx *mc.Ctx) core.Oracle {
				return adversary.Enumerated(ctx, n, enum)
			},
			Props: []mc.Property{
				mc.Validity(mcInputs),
				mc.KAgreement(f + 1),
			},
			Mark: true,
		}
	}

	res, err := mc.Explore(mc.Options{}, mc.CheckRun(spec(agreement.QuorumKSet(f))))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquorum k-set verified under eq. (3): %d adversary schedules, exhausted=%v\n",
		res.Schedules, res.Exhausted)

	res, err = mc.Explore(mc.Options{}, mc.CheckRun(spec(agreement.QuorumKSetBuggy(f))))
	if err != nil {
		log.Fatal(err)
	}
	cx := res.Counterexample
	if cx == nil {
		log.Fatal("planted wrong-quorum bug not found")
	}
	replay := mc.FormatChoices(cx.Choices)
	fmt.Printf("planted wrong-quorum bug caught after %d schedules: %v\n", res.Schedules, cx.Err)
	fmt.Printf("minimal counterexample (%d choice): %s\n", len(cx.Choices), replay)

	// The choice string is the portable reproducer: parse and re-run it.
	choices, err := mc.ParseChoices(replay)
	if err != nil {
		log.Fatal(err)
	}
	if err := mc.Replay(choices, mc.CheckRun(spec(agreement.QuorumKSetBuggy(f)))); err != nil {
		fmt.Printf("replayed %s: violation reproduced\n", replay)
	} else {
		log.Fatal("counterexample did not replay")
	}
}
