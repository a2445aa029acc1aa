package exp

import (
	"errors"

	"repro/internal/adoptcommit"
	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/predicate"
	"repro/internal/simulate"
	"repro/internal/swmr"
	"repro/internal/task"
)

// E10OmissionSim validates Theorem 4.1: the first ⌊f/k⌋ rounds of an
// atomic-snapshot execution with budget k form a legal synchronous
// send-omission execution with budget f.
func E10OmissionSim(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "synchronous omission rounds from asynchronous snapshots",
		Ref:     "Theorem 4.1",
		Columns: []string{"n", "f", "k", "⌊f/k⌋", "seeds", "max|∪∪D|", "eq1(f)"},
	}
	seeds := seedsFor(quick, 40)
	for _, tc := range []struct{ n, f, k int }{
		{6, 3, 1}, {8, 4, 2}, {8, 5, 2}, {10, 6, 3}, {12, 9, 3},
	} {
		rounds := tc.f / tc.k
		type simStat struct {
			ok  bool
			cum int
		}
		rs, err := sweep(seeds, func(seed int) (simStat, error) {
			base, err := core.CollectTrace(tc.n, rounds+2, adversary.SnapshotChain(tc.n, tc.k, int64(seed)))
			if err != nil {
				return simStat{}, err
			}
			sim, err := simulate.OmissionPrefix(base, tc.f, tc.k)
			if err != nil {
				return simStat{}, err
			}
			return simStat{
				ok:  predicate.SendOmission(tc.f).Check(sim) == nil,
				cum: sim.CumulativeSuspects(sim.Len()).Count(),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		maxCum, ok := 0, true
		for _, s := range rs {
			ok = ok && s.ok
			if s.cum > maxCum {
				maxCum = s.cum
			}
		}
		t.AddRow(tc.n, tc.f, tc.k, rounds, seeds, maxCum, verdict(ok && maxCum <= tc.f))
	}
	t.AddNote("per-round budget k over ⌊f/k⌋ rounds accumulates to ≤ f — the whole content of the reduction")
	return t, nil
}

// E11AdoptCommit validates the §4.2 protocol: exhaustive model checking for
// two processes (all schedules × all crash points), and seeded sweeps for
// larger systems; plus the wait-free operation count 2n+2.
func E11AdoptCommit(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "adopt-commit protocol correctness",
		Ref:     "§4.2",
		Columns: []string{"mode", "n", "schedules/seeds", "violations", "ops/proc", "verdict"},
	}

	check := func(inputs []core.Value, cfg swmr.Config) error {
		res, err := swmr.Run(len(inputs), cfg, func(p *swmr.Proc) (core.Value, error) {
			return adoptcommit.Run(p, "x", inputs[p.Me])
		})
		if err != nil {
			return err
		}
		a := task.Assignment{Inputs: inputs, Outputs: make(map[core.PID]core.Value), Crashed: core.NewSet(len(inputs))}
		for pid, e := range res.Errs {
			if !errors.Is(e, swmr.ErrCrashed) {
				return e
			}
			a.Crashed.Add(pid)
		}
		for pid, v := range res.Values {
			o := v.(adoptcommit.Outcome)
			a.Outputs[pid] = task.GradedValue{Commit: o.Grade == adoptcommit.Commit, Value: o.Value}
		}
		return task.AdoptCommit().Check(a)
	}

	// Exhaustive, two processes, contested inputs, every crash point. The
	// eight crash points are independent state-space explorations, so they
	// fan out like a seed sweep (index i is crash point i-1).
	inputs := []core.Value{1, 2}
	type exploreStat struct {
		count    int
		violated bool
	}
	exps, err := sweep(8, func(i int) (exploreStat, error) {
		crashAt := i - 1
		cfg := swmr.Config{}
		if crashAt >= 0 {
			cfg.Crash = map[core.PID]int{0: crashAt}
		}
		// The eight explorations already fan out: each runs sequentially.
		res, err := mc.Explore(mc.Options{MaxSchedules: 200000, Workers: 1}, func(ctx *mc.Ctx) error {
			c := cfg
			c.Chooser = func(_ int, runnable []core.PID) int { return ctx.Choose(len(runnable)) }
			return check(inputs, c)
		})
		if err != nil {
			return exploreStat{}, err
		}
		// A truncated search reports the schedules that did run.
		return exploreStat{count: res.Schedules, violated: res.Counterexample != nil}, nil
	})
	if err != nil {
		return nil, err
	}
	total, violations := 0, 0
	for _, e := range exps {
		total += e.count
		if e.violated {
			violations++
		}
	}
	t.AddRow("exhaustive n=2 (+crash sweep)", 2, total, violations, 2*2+2, verdict(violations == 0))

	// Seeded sweeps for larger systems.
	seeds := seedsFor(quick, 200)
	for _, n := range []int{3, 4, 6} {
		rs, err := sweep(seeds, func(seed int) (bool, error) {
			in := make([]core.Value, n)
			for i := range in {
				in[i] = (seed + i*i) % 3
			}
			return check(in, swmr.Config{Chooser: swmr.Seeded(int64(seed))}) != nil, nil
		})
		if err != nil {
			return nil, err
		}
		bad := 0
		for _, b := range rs {
			if b {
				bad++
			}
		}
		t.AddRow("seeded", n, seeds, bad, 2*n+2, verdict(bad == 0))
	}
	return t, nil
}

// E12CrashSim validates Theorem 4.3: the crash-fault simulation is sound
// (the induced trace satisfies eqs. 1+2 with budget f) and preserves the
// FloodMin guarantee (≤ k+1 distinct decisions over ⌊f/k⌋ rounds), at the
// cost of one snapshot round plus n adopt-commits per simulated round.
func E12CrashSim(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "synchronous crash rounds from asynchronous snapshots",
		Ref:     "Theorem 4.3",
		Columns: []string{"n", "f", "k", "rounds", "real crashes", "seeds", "trace", "≤k+1 distinct", "steps/round"},
	}
	seeds := seedsFor(quick, 12)
	for _, tc := range []struct{ n, f, k, crashes int }{
		{5, 2, 2, 0}, {6, 4, 2, 0}, {6, 4, 2, 1}, {7, 3, 3, 2},
	} {
		rounds := tc.f / tc.k
		type crashStat struct {
			traceOK, agreeOK bool
			steps            int
		}
		rs, err := sweep(seeds, func(seed int) (crashStat, error) {
			cfg := swmr.Config{Chooser: swmr.Seeded(int64(seed))}
			if tc.crashes > 0 {
				cfg.Crash = map[core.PID]int{}
				for c := 0; c < tc.crashes; c++ {
					cfg.Crash[core.PID(tc.n-1-c)] = 15 + seed + 11*c
				}
			}
			res, err := simulate.CrashSync(tc.n, tc.f, tc.k, rounds, cfg,
				agreement.FloodMin(rounds), identityInputs(tc.n))
			if err != nil {
				return crashStat{}, err
			}
			return crashStat{
				traceOK: predicate.SyncCrash(tc.f).Check(res.Result.Trace) == nil,
				agreeOK: agreement.Validate(res.Result, identityInputs(tc.n), tc.k+1, rounds) == nil,
				steps:   res.Steps,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		traceOK, agreeOK := true, true
		var steps int
		for _, s := range rs {
			traceOK = traceOK && s.traceOK
			agreeOK = agreeOK && s.agreeOK
			steps += s.steps
		}
		t.AddRow(tc.n, tc.f, tc.k, rounds, tc.crashes, seeds,
			verdict(traceOK), verdict(agreeOK), steps/(seeds*rounds))
	}
	t.AddNote("each simulated round costs 3 asynchronous rounds: one snapshot exchange plus the two adopt-commit phases")
	return t, nil
}

// E13LowerBound validates Corollaries 4.2/4.4: FloodMin meets the
// ⌊f/k⌋+1 bound exactly against the chain adversary, truncating it one
// round short yields exactly k+1 distinct values, and the staircase
// schedule realizes the same violation through the full Theorem 4.3
// machinery with zero real crashes.
func E13LowerBound(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E13",
		Title:   "the ⌊f/k⌋+1 synchronous lower bound for k-set agreement",
		Ref:     "Corollaries 4.2 and 4.4",
		Columns: []string{"witness", "n", "f", "k", "rounds", "distinct", "verdict"},
	}
	for _, tc := range []struct{ n, f, k int }{
		{8, 3, 1}, {10, 4, 2}, {14, 6, 3}, {12, 5, 2},
	} {
		full := tc.f/tc.k + 1
		res, err := core.Run(tc.n, identityInputs(tc.n), agreement.FloodMin(full),
			adversary.ChainCrash(tc.n, tc.f, tc.k))
		if err != nil {
			return nil, err
		}
		okFull := agreement.Validate(res, identityInputs(tc.n), tc.k, full) == nil
		t.AddRow("chain, ⌊f/k⌋+1 rounds", tc.n, tc.f, tc.k, full, res.DistinctOutputs(), verdict(okFull))

		trunc, err := core.Run(tc.n, identityInputs(tc.n), agreement.FloodMin(tc.f/tc.k),
			adversary.ChainCrash(tc.n, tc.f, tc.k))
		if err != nil {
			return nil, err
		}
		// The violation is the POSITIVE result here.
		t.AddRow("chain, ⌊f/k⌋ rounds", tc.n, tc.f, tc.k, tc.f/tc.k, trunc.DistinctOutputs(),
			verdict(trunc.DistinctOutputs() == tc.k+1))
	}

	// The asynchronous witness through Theorem 4.3 (no real crashes).
	n, f, k := 4, 2, 2
	chooser := swmr.PriorityGroups([]core.PID{2, 3}, []core.PID{1}, []core.PID{0})
	res, err := simulate.CrashSync(n, f, k, f/k, swmr.Config{Chooser: chooser},
		agreement.FloodMin(f/k), identityInputs(n))
	if err != nil {
		return nil, err
	}
	t.AddRow("staircase via Thm 4.3", n, f, k, f/k, res.Result.DistinctOutputs(),
		verdict(res.Result.DistinctOutputs() == k+1 && res.RealCrashes.Empty()))
	t.AddNote("a ⌊f/k⌋-round algorithm would give k-resilient async k-set agreement — impossible (BG/HS/SZ)")
	return t, nil
}
