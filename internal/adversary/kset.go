package adversary

import "repro/internal/core"

// KSetUncertainty returns an adversary for the §3 detector predicate:
// |⋃_i D(i,r) \ ⋂_i D(i,r)| < k in every round. It is built to probe
// Theorem 3.1 as hard as the predicate allows: each round it picks a common
// core C of suspects shared by everyone plus an uncertainty pool U of exactly
// k−1 processes about which observers disagree arbitrarily.
func KSetUncertainty(n, k int, seed int64) core.Oracle {
	rng := newRand(seed)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		// Keep |C| + |U| < n so no process's D can become all of S.
		maxCore := n - k
		if maxCore < 0 {
			maxCore = 0
		}
		c := pickK(rng, n, active, rng.Intn(maxCore+1))
		u := pickK(rng, n, active.Diff(c), k-1)
		sus := make([]core.Set, n)
		active.ForEach(func(i core.PID) {
			d := c.Clone()
			u.ForEach(func(p core.PID) {
				if rng.Intn(2) == 1 {
					d.Add(p)
				}
			})
			sus[i] = d
		})
		for i := range sus {
			if sus[i].Universe() == 0 {
				sus[i] = core.NewSet(n)
			}
		}
		return core.RoundPlan{Suspects: sus}
	})
}

// Identical returns an adversary for eq. (5) of §5: every process receives
// the same suspect set each round (the k=1 instance of the §3 detector,
// which the semi-synchronous model implements in 2 steps). The common set is
// chosen at random each round, as large as n−1.
func Identical(n int, seed int64) core.Oracle {
	rng := newRand(seed)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		pool := active.Clone()
		// Leave at least one process unsuspected so D ≠ S.
		members := pool.Members()
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		d := core.SetOf(n, members[:rng.Intn(len(members))]...)
		sus := make([]core.Set, n)
		for i := range sus {
			sus[i] = d.Clone()
		}
		return core.RoundPlan{Suspects: sus}
	})
}

// EventuallySpare returns an adversary for the EVENTUAL-accuracy RRFD (the
// round-by-round analogue of the ◇S regime, an instance of the paper's §7
// programme): per-round suspicion budget f throughout, arbitrary suspicion
// of anyone — including the spare — through round stab, and from round
// stab+1 on the spare process is never suspected again.
func EventuallySpare(n, f, stab int, spare core.PID, seed int64) core.Oracle {
	rng := newRand(seed)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := make([]core.Set, n)
		active.ForEach(func(i core.PID) {
			pool := active.Clone()
			pool.Remove(i)
			if r > stab {
				pool.Remove(spare)
			}
			sus[i] = pickK(rng, n, pool, f)
		})
		for i := range sus {
			if sus[i].Universe() == 0 {
				sus[i] = core.NewSet(n)
			}
		}
		return core.RoundPlan{Suspects: sus}
	})
}

// SpareNeverSuspected returns an adversary for §2 item 6 (the failure
// detector S): one designated process — spare — is never suspected by
// anyone, while everyone else may be suspected arbitrarily, in arbitrarily
// different ways at different observers, round after round. This is the
// wait-free regime: up to n−1 processes may effectively never be heard from.
func SpareNeverSuspected(n int, spare core.PID, seed int64) core.Oracle {
	rng := newRand(seed)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := make([]core.Set, n)
		active.ForEach(func(i core.PID) {
			pool := active.Clone()
			pool.Remove(spare)
			pool.Remove(i) // keep D ≠ S simple; self-trust is also natural here
			sus[i] = randSubset(rng, n, pool, n-1)
		})
		for i := range sus {
			if sus[i].Universe() == 0 {
				sus[i] = core.NewSet(n)
			}
		}
		return core.RoundPlan{Suspects: sus}
	})
}
