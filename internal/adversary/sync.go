package adversary

import "repro/internal/core"

// Omission returns an adversary for the synchronous send-omission model of
// §2 item 1 (predicate eq. (1)): it picks up to f victim processes whose
// messages may be dropped at any subset of receivers in any round. Victims
// never suspect themselves; the cumulative suspect set stays within the f
// budget because only victims are ever suspected.
//
// rate in [0,1] tunes hostility: the probability that a victim's round
// message is dropped at each receiver.
func Omission(n, f int, rate float64, seed int64) core.Oracle {
	rng := newRand(seed)
	victims := pickK(rng, n, core.FullSet(n), f)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := emptySuspects(n)
		active.ForEach(func(i core.PID) {
			victims.ForEach(func(v core.PID) {
				if v != i && active.Has(v) && rng.Float64() < rate {
					sus[i].Add(v)
				}
			})
		})
		return core.RoundPlan{Suspects: sus}
	})
}

// Crash returns an adversary for the synchronous crash model of §2 item 2
// (eqs. (1)+(2)): up to f victims crash at scheduled rounds. A victim
// crashing "during" round r is modelled faithfully: it emits its round-r
// message, which reaches a random subset of receivers (the rest suspect it),
// and it stops participating from round r+1 — so everything suspected at
// round r is dead, hence suspected by everyone, at round r+1.
func Crash(n, f int, seed int64) core.Oracle {
	rng := newRand(seed)
	victims := pickK(rng, n, core.FullSet(n), f).Members()
	// Assign each victim a crash round in [1, 2f+2]; multiple victims may
	// share a round.
	crashRound := make(map[core.PID]int, len(victims))
	for _, v := range victims {
		crashRound[v] = 1 + rng.Intn(2*f+2)
	}
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := emptySuspects(n)
		crashes := core.NewSet(n)
		dying := core.NewSet(n) // emit this round, dead next round
		for v, cr := range crashRound {
			if !active.Has(v) {
				continue
			}
			switch {
			case cr < r:
				crashes.Add(v)
			case cr == r:
				dying.Add(v)
			}
		}
		live := active.Diff(crashes)
		dead := core.FullSet(n).Diff(live)
		live.ForEach(func(i core.PID) {
			dead.ForEach(func(v core.PID) { sus[i].Add(v) })
			dying.ForEach(func(v core.PID) {
				// A dying process hears itself; others miss its last
				// message with probability 1/2.
				if v != i && rng.Intn(2) == 1 {
					sus[i].Add(v)
				}
			})
		})
		return core.RoundPlan{Suspects: sus, Crashes: crashes}
	})
}

// ChainCrash returns the classic k-chains crash adversary used for the
// ⌊f/k⌋+1 synchronous lower bound (Corollaries 4.2/4.4, after Chaudhuri,
// Herlihy, Lynch and Tuttle). With inputs v_i = i it maintains k disjoint
// chains, one per value j ∈ {0..k−1}: in round r the current holder of value
// j delivers its message only to the next chain member and then crashes, so
// after m = ⌊f/k⌋ rounds each small value is known to exactly one live
// process. Any algorithm that decides at round m outputs k+1 distinct values
// (the k hidden ones plus value k), violating k-set agreement.
//
// Requires n ≥ k·(m+1)+1 where m = f/k (so the chains and at least one
// bystander fit). The schedule uses exactly k crashes per round for m rounds
// (≤ f total) and satisfies the sync-crash predicate (eqs. (1)+(2)).
func ChainCrash(n, f, k int) core.Oracle {
	m := f / k
	// holder(j, r) = p_{k·(r−1)+j} is the round-r holder of value j.
	holder := func(j, r int) core.PID { return core.PID(k*(r-1) + j) }
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := emptySuspects(n)
		crashes := core.NewSet(n)
		// Crash last round's holders at the start of this round.
		if r > 1 && r <= m+1 {
			for j := 0; j < k; j++ {
				crashes.Add(holder(j, r-1))
			}
		}
		live := active.Diff(crashes)
		dead := core.FullSet(n).Diff(live)
		live.ForEach(func(i core.PID) {
			dead.ForEach(func(v core.PID) { sus[i].Add(v) })
			if r <= m {
				// This round's holders reach only their successors.
				for j := 0; j < k; j++ {
					h, next := holder(j, r), holder(j, r+1)
					if i != next && i != h {
						sus[i].Add(h)
					}
				}
			}
		})
		return core.RoundPlan{Suspects: sus, Crashes: crashes}
	})
}
