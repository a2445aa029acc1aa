package exp

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/predicate"
	"repro/internal/simulate"
	"repro/internal/snapshot"
	"repro/internal/swmr"
)

// E01SyncOmission validates §2 item 1: hostile send-omission schedules
// satisfy eq. (1), and the cumulative suspicion never exceeds the fault
// budget f.
func E01SyncOmission(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E01",
		Title:   "synchronous send-omission system ≡ predicate eq.(1)",
		Ref:     "§2 item 1",
		Columns: []string{"n", "f", "rounds", "seeds", "max|∪∪D|", "eq1"},
	}
	seeds := seedsFor(quick, 40)
	for _, tc := range []struct{ n, f int }{{4, 1}, {8, 3}, {8, 7}, {16, 8}} {
		maxCum, ok := 0, true
		for seed := 0; seed < seeds; seed++ {
			tr, err := core.CollectTrace(tc.n, 10, adversary.Omission(tc.n, tc.f, 0.8, int64(seed)))
			if err != nil {
				return nil, err
			}
			if predicate.SendOmission(tc.f).Check(tr) != nil {
				ok = false
			}
			if c := tr.CumulativeSuspects(tr.Len()).Count(); c > maxCum {
				maxCum = c
			}
		}
		t.AddRow(tc.n, tc.f, 10, seeds, maxCum, verdict(ok && maxCum <= tc.f))
	}
	t.AddNote("cumulative suspicion stays within f in every execution — the defining clause of eq.(1)")
	return t, nil
}

// E02CrashSubmodel validates §2 item 2: crash schedules satisfy
// eqs. (1)+(2), hence also plain eq. (1) — crash is an explicit submodel of
// send-omission — while omission schedules can violate the propagation
// clause (the separation).
func E02CrashSubmodel(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E02",
		Title:   "crash faults are a submodel of send-omission faults",
		Ref:     "§2 item 2",
		Columns: []string{"n", "f", "seeds", "crash-pred", "omission-pred", "omission⇏crash"},
	}
	seeds := seedsFor(quick, 40)
	for _, tc := range []struct{ n, f int }{{6, 2}, {8, 3}, {12, 5}} {
		crashOK, omitOK := true, true
		for seed := 0; seed < seeds; seed++ {
			tr, err := core.CollectTrace(tc.n, 12, adversary.Crash(tc.n, tc.f, int64(seed)))
			if err != nil {
				return nil, err
			}
			if predicate.SyncCrash(tc.f).Check(tr) != nil {
				crashOK = false
			}
			if predicate.SendOmission(tc.f).Check(tr) != nil {
				omitOK = false
			}
		}
		// Separation: an omission schedule whose suspicions do not
		// propagate (a victim suspected in one round, trusted in the
		// next).
		gen := func(seed int64) (*core.Trace, error) {
			return core.CollectTrace(tc.n, 12, adversary.Omission(tc.n, tc.f, 0.6, seed))
		}
		_, sepErr := predicate.Separates(gen, predicate.SendOmission(tc.f), predicate.SuspicionPropagates(), 100)
		t.AddRow(tc.n, tc.f, seeds, verdict(crashOK), verdict(omitOK), verdict(sepErr == nil))
	}
	t.AddNote("every crash execution is an omission execution; the converse fails — the submodel relation is strict")
	return t, nil
}

// E03AsyncRounds validates §2 item 3: the operational round-enforced
// asynchronous network induces exactly eq. (3), and the B system (two of
// whose rounds implement one round of A) is strictly weaker.
func E03AsyncRounds(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E03",
		Title:   "async message passing ≡ eq.(3); the B system strictly contains A",
		Ref:     "§2 item 3",
		Columns: []string{"system", "n", "f", "t", "seeds", "eq3", "B→A sim", "B⇏A"},
	}
	seeds := seedsFor(quick, 25)
	for _, tc := range []struct{ n, f int }{{4, 1}, {6, 2}, {8, 3}} {
		ok := true
		var steps int
		for seed := 0; seed < seeds; seed++ {
			out, err := msgnet.RunRounds(tc.n, tc.f, 6, msgnet.Config{Chooser: msgnet.Seeded(int64(seed))}, nil)
			if err != nil {
				return nil, err
			}
			if predicate.PerRoundBudget(tc.f).Check(out.Trace) != nil {
				ok = false
			}
			steps += out.Steps
		}
		t.AddRow("msgnet rounds", tc.n, tc.f, "-", seeds, verdict(ok), "-", "-")
	}
	// The B system: f < t, 2t < n.
	for _, tc := range []struct{ n, f, tt int }{{9, 2, 4}, {11, 3, 5}} {
		simOK, sepFound := true, false
		for seed := 0; seed < seeds; seed++ {
			base, err := core.CollectTrace(tc.n, 8, adversary.BSystemOracle(tc.n, tc.f, tc.tt, int64(seed)))
			if err != nil {
				return nil, err
			}
			sim, err := simulate.BToA(base, tc.f)
			if err != nil {
				return nil, err
			}
			if predicate.PerRoundBudget(tc.f).Check(sim) != nil {
				simOK = false
			}
			if predicate.PerRoundBudget(tc.f).Check(base) != nil {
				sepFound = true
			}
		}
		t.AddRow("B system", tc.n, tc.f, tc.tt, seeds, "-", verdict(simOK), verdict(sepFound))
	}
	t.AddNote("eq.(3) is therefore not the weakest RRFD for f-resilient asynchronous message passing")
	return t, nil
}

// E04SharedMemory validates §2 item 4: the 2f<n message-passing emulation
// yields eqs. (3)+(4); the no-mutual-miss alternative admits cycles that
// violate eq. (4); and the paper's information-propagation claims hold —
// under the no-mutual-miss predicate some process's round-1 value is known
// to all within n rounds (the paper conjectures 2 rounds suffice; the last
// column reports the worst case observed).
func E04SharedMemory(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E04",
		Title:   "SWMR shared memory ≡ eqs.(3)+(4); no-mutual-miss and the cycle conjecture",
		Ref:     "§2 item 4",
		Columns: []string{"part", "n", "f", "seeds", "result", "worst rounds-to-known-by-all"},
	}
	seeds := seedsFor(quick, 25)

	// Part 1: 2 message-passing rounds implement 1 shared-memory round.
	for _, tc := range []struct{ n, f int }{{5, 2}, {7, 3}, {9, 4}} {
		ok := true
		for seed := 0; seed < seeds; seed++ {
			out, err := msgnet.RunRounds(tc.n, tc.f, 6, msgnet.Config{Chooser: msgnet.Seeded(int64(seed))}, nil)
			if err != nil {
				return nil, err
			}
			sim, err := simulate.TwoRoundsToSharedMemory(out.Trace)
			if err != nil {
				return nil, err
			}
			if predicate.SharedMemory(tc.f).Check(sim) != nil {
				ok = false
			}
		}
		t.AddRow("2 MP rounds → 1 SM round", tc.n, tc.f, seeds, verdict(ok), "-")
	}

	// Part 2: the partition behaviour when 2f ≥ n.
	gen := func(seed int64) (*core.Trace, error) {
		out, err := msgnet.RunRounds(2, 1, 3, msgnet.Config{Chooser: msgnet.Seeded(seed)}, nil)
		if err != nil {
			return nil, err
		}
		return out.Trace, nil
	}
	_, sepErr := predicate.Separates(gen, predicate.PerRoundBudget(1), predicate.SomeoneSeenByAll(), 100)
	t.AddRow("partition when 2f ≥ n", 2, 1, 100, verdict(sepErr == nil), "-")

	// Part 3: the cycle conjecture under the no-mutual-miss predicate.
	for _, tc := range []struct{ n, f int }{{5, 2}, {7, 3}, {9, 4}} {
		worst := 0
		for seed := 0; seed < seeds*4; seed++ {
			tr, err := core.CollectTrace(tc.n, tc.n+1, adversary.NoMutualMissOracle(tc.n, tc.f, int64(seed)))
			if err != nil {
				return nil, err
			}
			r, err := RoundsToKnownByAll(tr)
			if err != nil {
				return nil, err
			}
			if r > worst {
				worst = r
			}
		}
		t.AddRow("no-mutual-miss propagation", tc.n, tc.f, seeds*4, verdict(worst <= tc.n), worst)
	}
	t.AddNote("worst observed rounds-to-known-by-all bears on the paper's 2-round conjecture")
	return t, nil
}

// RoundsToKnownByAll computes the smallest r such that, running full
// information over the trace, some process's round-1 emission is known to
// every process: K(i,1) = S(i,1) ∪ {i}, K(i,r) = K(i,r−1) ∪ ⋃_{j∈S(i,r)}
// K(j,r−1). It returns an error if the trace ends before that happens.
func RoundsToKnownByAll(tr *core.Trace) (int, error) {
	n := tr.N
	know := make([]core.Set, n)
	for r := 1; r <= tr.Len(); r++ {
		rec := tr.Round(r)
		next := make([]core.Set, n)
		for i := 0; i < n; i++ {
			pid := core.PID(i)
			k := core.SetOf(n, pid)
			if r == 1 {
				k = k.Union(rec.Deliver[i])
			} else {
				k = k.Union(know[i])
				rec.Deliver[i].ForEach(func(j core.PID) {
					k = k.Union(know[j])
				})
			}
			next[i] = k
		}
		know = next
		common := core.FullSet(n)
		for i := 0; i < n; i++ {
			common = common.Intersect(know[i])
		}
		if !common.Empty() {
			return r, nil
		}
	}
	return 0, fmt.Errorf("exp: nobody known by all within %d rounds", tr.Len())
}

// E05Snapshot validates §2 item 5: the snapshot round protocol induces the
// atomic-snapshot predicate (budget + self-inclusion + containment chain).
func E05Snapshot(quick bool) (*Table, error) {
	t := &Table{
		ID:      "E05",
		Title:   "atomic-snapshot rounds ≡ item 5 predicate",
		Ref:     "§2 item 5",
		Columns: []string{"n", "f", "rounds", "seeds", "crashes", "predicate"},
	}
	seeds := seedsFor(quick, 15)
	for _, tc := range []struct{ n, f, crashes int }{{4, 1, 0}, {5, 2, 1}, {8, 3, 2}} {
		ok := true
		for seed := 0; seed < seeds; seed++ {
			cfg := swmr.Config{Chooser: swmr.Seeded(int64(seed))}
			if tc.crashes > 0 {
				cfg.Crash = map[core.PID]int{}
				for c := 0; c < tc.crashes; c++ {
					cfg.Crash[core.PID(tc.n-1-c)] = 10 + 7*c
				}
			}
			out, err := snapshot.RunRounds(tc.n, tc.f, 4, cfg, nil)
			if err != nil {
				return nil, err
			}
			if predicate.AtomicSnapshot(tc.f).Check(out.Trace) != nil {
				ok = false
			}
		}
		t.AddRow(tc.n, tc.f, 4, seeds, tc.crashes, verdict(ok))
	}
	return t, nil
}
