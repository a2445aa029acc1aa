package exp

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/mc"
)

// X05CatalogModels sweeps the derived-model catalog (internal/hoalg)
// through all three compiled artifacts: each model's expression is
// enumerated branch by branch under the mc explorer (schedules must
// exhaust with the compiled checker attached as a trace property), and
// chaos-tested in lock-step engine runs under its honest compiled plan
// (zero violations) and under its negation's breaker plan (the compiled
// checker must catch it). One expression, three validated artifacts —
// the single-source-of-truth claim, measured.
func X05CatalogModels(quick bool) (*Table, error) {
	t := &Table{
		ID:      "X05",
		Title:   "derived-model catalog: one expression, three artifacts",
		Ref:     "arXiv 2004.10619 elementary patterns over §2–§5 models",
		Columns: []string{"model", "expression", "new", "mc schedules (n=3)", "honest plan", "breaker plan"},
	}

	const (
		n, f, k = 3, 1, 2
		chaosN  = 5
		seed    = 11
	)
	runs := 4
	if quick {
		runs = 2
	}
	p := hoalg.Params{N: n, F: f, K: k, Stab: 1}
	chaosP := hoalg.Params{N: chaosN, F: f, K: k, Stab: 1}

	models := hoalg.Catalog()
	rows, err := sweep(len(models), func(i int) ([]string, error) {
		m := models[i]

		schedules, err := exploreModel(m.Build(p), n, f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name, err)
		}

		ce := m.Build(chaosP)
		honest, err := modelCampaign(ce, ce, chaosN, f, k, runs, seed)
		if err != nil {
			return nil, fmt.Errorf("%s honest: %w", m.Name, err)
		}
		breaker, err := modelCampaign(ce, hoalg.Not(ce), chaosN, f, k, runs, seed)
		if err != nil {
			return nil, fmt.Errorf("%s breaker: %w", m.Name, err)
		}

		isNew := ""
		if m.New {
			isNew = "yes"
		}
		return []string{
			m.Name, ce.String(), isNew,
			fmt.Sprintf("%d", schedules),
			verdict(honest.Ok()),
			caught(len(breaker.Violations) > 0),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.AddNote("mc: every branch explored to exhaustion at n=%d, f=%d with the compiled checker as a trace property", n, f)
	t.AddNote("chaos: %d lock-step runs at n=%d under the compiled fault plan; breaker = plan of the negated expression", runs, chaosN)
	return t, nil
}

// exploreModel runs the mc explorer over every enumeration branch of the
// expression with the compiled checker attached, returning the total
// schedule count. Exploration must exhaust — a bound hit means the table
// under-reports the model's schedule space.
func exploreModel(e *hoalg.Expr, n, f int) (int, error) {
	branches, err := e.EnumBranches(n)
	if err != nil {
		return 0, err
	}
	pred := e.Compile()
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	total := 0
	for _, b := range branches {
		enum := b.Enum
		res, err := mc.Explore(mc.Options{}, mc.CheckRun(mc.RunSpec{
			N:      n,
			Inputs: inputs,
			// FloodMin terminates in its fixed round count whatever the
			// model suspects, so even quorum-starving models (a process
			// hearing nobody) explore cleanly. The agreement bound such a
			// model actually warrants is per-model theory (E-series);
			// here validity plus the compiled trace property suffice.
			Factory: agreement.FloodMin(f + 1),
			Oracle: func(ctx *mc.Ctx) core.Oracle {
				return adversary.Enumerated(ctx, n, adversary.Enum(enum))
			},
			Props: []mc.Property{mc.Validity(inputs)},
			Model: &pred,
			// Mark stays off: state-hash pruning is unsound under a
			// whole-trace property (see mc.RunSpec.Model).
		}))
		if err != nil {
			return 0, fmt.Errorf("branch %q: %w", b.Expr, err)
		}
		if res.Counterexample != nil {
			return 0, fmt.Errorf("branch %q found a counterexample: %v", b.Expr, res.Counterexample.Err)
		}
		if !res.Exhausted {
			return 0, fmt.Errorf("branch %q did not exhaust", b.Expr)
		}
		total += res.Schedules
	}
	return total, nil
}

// modelCampaign runs a lock-step chaos campaign checking expression e's
// compiled predicate against the compiled plan of planFrom.
func modelCampaign(e, planFrom *hoalg.Expr, n, f, k, runs int, seed int64) (*chaos.Summary, error) {
	plan, err := planFrom.CompilePlan(n, seed)
	if err != nil {
		return nil, err
	}
	pred := e.Compile()
	return chaos.Run(chaos.Config{
		N: n, F: f, K: k,
		Rounds:     3,
		Runs:       runs,
		Seed:       seed,
		SyncRounds: true,
		FixedPlan:  &plan,
		TracePred:  &pred,
	}), nil
}

// caught renders the breaker-plan cell: catching the planned violation is
// the success; an escape is the harness failure the experiment test greps
// for.
func caught(hit bool) string {
	if hit {
		return "caught"
	}
	return "VIOLATED"
}
