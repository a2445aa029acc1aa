package adversary

import "repro/internal/core"

// KSetUncertainty returns an adversary for the §3 detector predicate:
// |⋃_i D(i,r) \ ⋂_i D(i,r)| < k in every round. It is built to probe
// Theorem 3.1 as hard as the predicate allows: each round it picks a common
// core C of suspects shared by everyone plus an uncertainty pool U of exactly
// k−1 processes about which observers disagree arbitrarily.
func KSetUncertainty(n, k int, seed int64) core.Oracle {
	s := newSampler(n, seed)
	c, u := core.NewSet(n), core.NewSet(n)
	// Keep |C| + |U| < n so no process's D can become all of S.
	maxCore := max(n-k, 0)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := s.rows()
		s.pickK(&c, active, s.rng.Intn(maxCore+1))
		s.pool.CopyFrom(active)
		s.pool.DiffInto(c)
		s.pickK(&u, s.pool, k-1)
		active.ForEach(func(i core.PID) {
			sus[i].CopyFrom(c)
			u.ForEach(func(p core.PID) {
				if s.rng.Intn(2) == 1 {
					sus[i].Add(p)
				}
			})
		})
		return core.RoundPlan{Suspects: sus}
	})
}

// Identical returns an adversary for eq. (5) of §5: every process receives
// the same suspect set each round (the k=1 instance of the §3 detector,
// which the semi-synchronous model implements in 2 steps). The common set is
// chosen at random each round, as large as n−1.
func Identical(n int, seed int64) core.Oracle {
	s := newSampler(n, seed)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := s.rows()
		// Leave at least one process unsuspected so D ≠ S.
		members := s.shuffled(active)
		for _, p := range members[:s.rng.Intn(len(members))] {
			sus[0].Add(p)
		}
		for i := 1; i < n; i++ {
			sus[i].CopyFrom(sus[0])
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
	s := newSampler(n, seed)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := s.rows()
		active.ForEach(func(i core.PID) {
			s.pool.CopyFrom(active)
			s.pool.Remove(i)
			if r > stab {
				s.pool.Remove(spare)
			}
			s.pickK(&sus[i], s.pool, f)
		})
		return core.RoundPlan{Suspects: sus}
	})
}

// SpareNeverSuspected returns an adversary for §2 item 6 (the failure
// detector S): one designated process — spare — is never suspected by
// anyone, while everyone else may be suspected arbitrarily, in arbitrarily
// different ways at different observers, round after round. This is the
// wait-free regime: up to n−1 processes may effectively never be heard from.
func SpareNeverSuspected(n int, spare core.PID, seed int64) core.Oracle {
	s := newSampler(n, seed)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := s.rows()
		active.ForEach(func(i core.PID) {
			s.pool.CopyFrom(active)
			s.pool.Remove(spare)
			s.pool.Remove(i) // keep D ≠ S simple; self-trust is also natural here
			s.randSubset(&sus[i], s.pool, n-1)
		})
		return core.RoundPlan{Suspects: sus}
	})
}
