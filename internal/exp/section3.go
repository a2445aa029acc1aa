package exp

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/predicate"
	"repro/internal/snapshot"
	"repro/internal/swmr"
	"repro/internal/task"
)

func identityInputs(n int) []core.Value {
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	return inputs
}

// E06ConsensusS validates §2 item 6: under the RRFD with some process never
// suspected (the counterpart of failure detector S), the rotating-
// coordinator algorithm solves consensus wait-free in n rounds — both under
// the abstract adversary and under histories of a classical S detector.
func E06ConsensusS(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E06",
		Title:   "consensus under the detector-S RRFD (wait-free, n rounds)",
		Ref:     "§2 item 6",
		Columns: []string{"source", "n", "seeds", "agreement", "max round"},
	}
	seeds := seedsFor(quick, 20)
	type seedStat struct {
		ok       bool
		maxRound int
	}
	for _, n := range []int{4, 7, 10} {
		rs, err := sweep(seeds, func(seed int) (seedStat, error) {
			spare := core.PID(seed % n)
			res, err := core.Run(n, identityInputs(n), agreement.RotatingCoordinator(),
				adversary.SpareNeverSuspected(n, spare, int64(seed)))
			if err != nil {
				return seedStat{}, err
			}
			return seedStat{
				ok:       agreement.Validate(res, identityInputs(n), 1, n) == nil,
				maxRound: res.MaxDecisionRound(),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		ok, maxRound := true, 0
		for _, s := range rs {
			ok = ok && s.ok
			if s.maxRound > maxRound {
				maxRound = s.maxRound
			}
		}
		t.AddRow("RRFD adversary", n, seeds, verdict(ok), maxRound)
	}
	// The same algorithm driven by a classical S detector history (the
	// item-6 construction: D(i,r) is the detector output that lets p_i
	// finish round r).
	for _, n := range []int{4, 7} {
		rs, err := sweep(seeds, func(seed int) (seedStat, error) {
			spare := core.PID(seed % n)
			base, err := core.CollectTrace(n, n, adversary.SpareNeverSuspected(n, spare, int64(seed)+999))
			if err != nil {
				return seedStat{}, err
			}
			h := detector.FromTrace(base)
			if err := h.CheckWeakAccuracy(); err != nil {
				return seedStat{}, err
			}
			res, err := core.Run(n, identityInputs(n), agreement.RotatingCoordinator(), detector.Oracle(h))
			if err != nil {
				return seedStat{}, err
			}
			return seedStat{
				ok:       agreement.Validate(res, identityInputs(n), 1, n) == nil,
				maxRound: res.MaxDecisionRound(),
			}, nil
		})
		if err != nil {
			return nil, err
		}
		ok, maxRound := true, 0
		for _, s := range rs {
			ok = ok && s.ok
			if s.maxRound > maxRound {
				maxRound = s.maxRound
			}
		}
		t.AddRow("classical S history", n, seeds, verdict(ok), maxRound)
	}
	// The eventual-accuracy extension (◇S analogue, §7 programme): the
	// rotating coordinator is unsafe when accuracy only holds eventually;
	// the adopt-commit-based phased consensus (ref. [16]) stays safe and
	// live.
	for _, n := range []int{5, 7} {
		f := (n - 1) / 2
		stab := 6
		rs, err := sweep(seeds, func(seed int) (bool, error) {
			spare := core.PID(seed % n)
			res, err := core.Run(n, identityInputs(n), agreement.PhasedConsensus(),
				adversary.EventuallySpare(n, f, stab, spare, int64(seed)),
				core.WithMaxRounds(stab+3*(n+2)))
			if err != nil {
				return false, err
			}
			return agreement.Validate(res, identityInputs(n), 1, 0) == nil, nil
		})
		if err != nil {
			return nil, err
		}
		ok := true
		for _, s := range rs {
			ok = ok && s
		}
		t.AddRow("eventual-S, phased consensus", n, seeds, verdict(ok), stab+3*(n+2))
	}
	t.AddNote("the predicate equals eq.(1)'s budget clause with f = n−1 — see E15 for the equivalence check")
	t.AddNote("eventual-accuracy rows extend the paper per its §7 programme; see internal/agreement/phased.go")
	return t, nil
}

// E07OneRoundKSet validates Theorem 3.1: k-set agreement in exactly one
// round under the detector |⋃D \ ⋂D| < k, across hostile sweeps.
func E07OneRoundKSet(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E07",
		Title:   "one-round k-set agreement under the §3 detector",
		Ref:     "Theorem 3.1",
		Columns: []string{"n", "k", "seeds", "max distinct", "bound k", "round", "verdict"},
	}
	seeds := seedsFor(quick, 200)
	for _, tc := range []struct{ n, k int }{
		{6, 1}, {8, 2}, {12, 3}, {16, 4}, {24, 6}, {32, 8},
	} {
		type kStat struct {
			ok               bool
			distinct, rounds int
		}
		rs, err := sweep(seeds, func(seed int) (kStat, error) {
			res, err := core.Run(tc.n, identityInputs(tc.n), agreement.OneRoundKSet(),
				adversary.KSetUncertainty(tc.n, tc.k, int64(seed)))
			if err != nil {
				return kStat{}, err
			}
			return kStat{
				ok:       agreement.Validate(res, identityInputs(tc.n), tc.k, 1) == nil,
				distinct: res.DistinctOutputs(),
				rounds:   res.Rounds,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		maxDistinct, rounds, ok := 0, 0, true
		for _, s := range rs {
			ok = ok && s.ok
			if s.distinct > maxDistinct {
				maxDistinct = s.distinct
			}
			if s.rounds > rounds {
				rounds = s.rounds
			}
		}
		t.AddRow(tc.n, tc.k, seeds, maxDistinct, tc.k, rounds, verdict(ok))
	}
	// Exhaustive PROOF for tiny universes: every 1-round detector
	// behaviour satisfying the predicate, with the algorithm run against
	// each.
	proofCases := []struct{ n, k int }{{3, 1}, {3, 2}, {4, 2}}
	for _, pc := range proofCases {
		pred := predicate.KSetDetector(pc.k)
		satisfying := 0
		err := predicate.ExhaustiveTraces(pc.n, 1, func(tr *core.Trace) error {
			if pred.Check(tr) != nil {
				return nil
			}
			satisfying++
			res, err := core.Run(pc.n, identityInputs(pc.n), agreement.OneRoundKSet(),
				core.TraceOracle(tr), core.WithoutTrace())
			if err != nil {
				return err
			}
			return agreement.Validate(res, identityInputs(pc.n), pc.k, 1)
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(pc.n, pc.k, fmt.Sprintf("proof:%d traces", satisfying), pc.k, pc.k, 1, verdict(satisfying > 0))
	}
	t.AddNote("compare the synchronous route: ⌊f/k⌋+1 rounds (E13) — the detector collapses it to one round")
	t.AddNote("proof rows run the algorithm against EVERY legal detector behaviour of the tiny universe")
	return t, nil
}

// E08KSetSharedMem validates Corollary 3.2 operationally: one snapshot
// round with f = k−1 real crash failures solves k-set agreement (decide the
// value of the smallest identifier present in the deciding scan).
func E08KSetSharedMem(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E08",
		Title:   "k-set agreement with k−1 crashes on the snapshot substrate",
		Ref:     "Corollary 3.2",
		Columns: []string{"n", "k", "crashes", "seeds", "max distinct", "verdict"},
	}
	seeds := seedsFor(quick, 40)
	for _, tc := range []struct{ n, k int }{{5, 1}, {6, 2}, {8, 3}, {9, 4}} {
		crashes := tc.k - 1
		rs, err := sweep(seeds, func(seed int) (task.Verdict[core.Value], error) {
			cfg := swmr.Config{Chooser: swmr.Seeded(int64(seed))}
			if crashes > 0 {
				cfg.Crash = map[core.PID]int{}
				for c := 0; c < crashes; c++ {
					// Vary the crash points with the seed for coverage.
					cfg.Crash[core.PID(tc.n-1-c)] = (seed*7 + c*13) % 40
				}
			}
			emit := func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
				return int(me) // the task input
			}
			out, err := snapshot.RunRounds(tc.n, crashes, 1, cfg, emit)
			if err != nil {
				return task.Verdict[core.Value]{}, err
			}
			return task.KSet(tc.k, nil, tc.n, func(i int) (core.Value, bool) {
				views := out.Views[core.PID(i)]
				if len(views) < 1 {
					return nil, false // crashed before completing the round
				}
				// Theorem 3.1 rule: the smallest identifier present.
				best := core.PID(-1)
				for from := range views[0] {
					if best < 0 || from < best {
						best = from
					}
				}
				return views[0][best], true
			}, nil), nil
		})
		if err != nil {
			return nil, err
		}
		maxDistinct, ok := 0, true
		for _, vd := range rs {
			ok = ok && !vd.Excess
			maxDistinct = max(maxDistinct, len(vd.Distinct))
		}
		t.AddRow(tc.n, tc.k, crashes, seeds, maxDistinct, verdict(ok))
	}
	t.AddNote("the snapshot predicate with budget k−1 implies the §3 detector (E15), so one round suffices")
	return t, nil
}

// E09DetectorFromKSet validates Theorem 3.3: a system with a k-set-consensus
// object and SWMR memory implements the §3 detector. The construction runs
// on the swmr substrate with the object provided as a linearizable oracle.
func E09DetectorFromKSet(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E09",
		Title:   "implementing the §3 detector from a k-set-consensus object",
		Ref:     "Theorem 3.3",
		Columns: []string{"n", "k", "rounds", "seeds", "max uncertainty", "detector pred"},
	}
	seeds := seedsFor(quick, 25)
	for _, tc := range []struct{ n, k int }{{4, 1}, {5, 2}, {7, 3}} {
		type uncStat struct {
			ok     bool
			maxUnc int
		}
		rs, err := sweep(seeds, func(seed int) (uncStat, error) {
			tr, err := DetectorFromKSet(tc.n, tc.k, 3, swmr.Config{Chooser: swmr.Seeded(int64(seed))})
			if err != nil {
				return uncStat{}, err
			}
			s := uncStat{ok: predicate.KSetDetector(tc.k).Check(tr) == nil}
			for r := 1; r <= tr.Len(); r++ {
				if unc := tr.SuspectUnion(r).Diff(tr.SuspectIntersection(r)).Count(); unc > s.maxUnc {
					s.maxUnc = unc
				}
			}
			return s, nil
		})
		if err != nil {
			return nil, err
		}
		maxUnc, ok := 0, true
		for _, s := range rs {
			ok = ok && s.ok
			if s.maxUnc > maxUnc {
				maxUnc = s.maxUnc
			}
		}
		t.AddRow(tc.n, tc.k, 3, seeds, maxUnc, verdict(ok && maxUnc < tc.k))
	}
	// Staircase schedules make the uncertainty bite: an early process
	// reads the chosen registers before the stragglers write, so the
	// suspect sets genuinely differ — but still by fewer than k.
	for _, tc := range []struct{ n, k int }{{4, 2}, {5, 3}} {
		groups := make([][]core.PID, tc.n)
		for i := 0; i < tc.n; i++ {
			groups[i] = []core.PID{core.PID(i)}
		}
		tr, err := DetectorFromKSet(tc.n, tc.k, 1, swmr.Config{Chooser: swmr.PriorityGroups(groups...)})
		if err != nil {
			return nil, err
		}
		if err := predicate.KSetDetector(tc.k).Check(tr); err != nil {
			return nil, err
		}
		unc := tr.SuspectUnion(1).Diff(tr.SuspectIntersection(1)).Count()
		t.AddRow(tc.n, tc.k, 1, "staircase", unc, verdict(unc == tc.k-1))
	}
	t.AddNote("staircase rows attain the k−1 uncertainty maximum — the detector bound is tight")
	return t, nil
}

// DetectorFromKSet runs the Theorem 3.3 construction for rounds rounds and
// returns the induced RRFD trace. Per round, each process: writes its round
// value, proposes its identifier to a k-set-consensus oracle, writes the
// chosen identifier to its cell, reads everyone's cells, and takes
// D(i,r) = S − Q where Q is the set of chosen identifiers it read. All
// suspect sets then differ only on chosen identifiers (at most k), and the
// first-written choice is read by everyone, so |⋃D \ ⋂D| ≤ k−1 < k. A
// process the scheduler crashes is inactive from the round it missed.
func DetectorFromKSet(n, k, rounds int, cfg swmr.Config) (*core.Trace, error) {
	recs := make([]*core.RoundRec, n)
	out, err := swmr.Run(n, cfg, func(p *swmr.Proc) (core.Value, error) {
		rec := &core.RoundRec{}
		recs[p.Me] = rec
		for r := 1; r <= rounds; r++ {
			if err := p.Write(fmt.Sprintf("val:%d", r), int(p.Me)*1000+r); err != nil {
				return nil, err
			}
			// The assumed k-set-consensus object: it stores the first k
			// proposals; a proposer whose value made it in gets its own
			// value back, later proposers get the first stored one. Any
			// such rule is a valid k-set object (≤ k distinct outputs,
			// all of them proposals) — this one maximizes disagreement,
			// probing the theorem's bound.
			chosen, err := p.Atomic(fmt.Sprintf("kset:%d", r), func(state core.Value) (core.Value, core.Value) {
				stored, _ := state.([]core.Value)
				if len(stored) < k {
					stored = append(stored, core.Value(p.Me))
					return stored, core.Value(p.Me)
				}
				return stored, stored[0]
			})
			if err != nil {
				return nil, err
			}
			if err := p.Write(fmt.Sprintf("chosen:%d", r), chosen); err != nil {
				return nil, err
			}
			cells, err := p.Collect(fmt.Sprintf("chosen:%d", r))
			if err != nil {
				return nil, err
			}
			q := core.NewSet(n)
			for _, c := range cells {
				if id, ok := c.(core.PID); ok {
					q.Add(id)
				}
			}
			rec.Complete(r, nil, q.Complement())
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return core.InducedTrace(n, recs, out.Crashed), nil
}
