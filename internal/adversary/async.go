package adversary

import "repro/internal/core"

// AsyncBudget returns an adversary for the asynchronous message-passing model
// of §2 item 3 (eq. (3)): every round, every process misses an arbitrary set
// of at most f others. Unlike the synchronous adversaries the missed sets are
// unconstrained across rounds and observers — a process suspected everywhere
// in round r may be heard from by everyone in round r+1.
//
// allowSelf permits p_i ∈ D(i,r), which the model explicitly tolerates ("p_i
// may be late to round r and learn that from the RRFD").
func AsyncBudget(n, f int, allowSelf bool, seed int64) core.Oracle {
	s := newSampler(n, seed)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := s.rows()
		active.ForEach(func(i core.PID) {
			s.pool.CopyFrom(active)
			if !allowSelf {
				s.pool.Remove(i)
			}
			s.pickK(&sus[i], s.pool, s.rng.Intn(f+1))
			if sus[i].Count() == n { // D(i,r) = S is forbidden
				sus[i].Remove(i)
			}
		})
		return core.RoundPlan{Suspects: sus}
	})
}

// SharedMem returns an adversary for the SWMR shared-memory model of §2
// item 4 (eqs. (3)+(4)): per-round budget f, and in every round at least one
// "star" process is suspected by nobody — the paper's declarative reading of
// the fact that the first writer of a round is read by everyone.
func SharedMem(n, f int, seed int64) core.Oracle {
	s := newSampler(n, seed)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		star := core.PID(s.rng.Intn(n))
		sus := s.rows()
		active.ForEach(func(i core.PID) {
			s.pool.CopyFrom(active)
			s.pool.Remove(i)
			s.pool.Remove(star)
			s.pickK(&sus[i], s.pool, s.rng.Intn(f+1))
		})
		return core.RoundPlan{Suspects: sus}
	})
}

// SnapshotChain returns an adversary for the atomic-snapshot model of §2
// item 5 (eq. (3) + self-inclusion + containment-ordered suspect sets). It
// is the operational picture of a snapshot round: the adversary linearizes
// the round's writes in a random order and gives each process a scan point
// no earlier than its own write and no more than f writes before the end;
// D(i,r) is then the suffix of processes that had not yet written at p_i's
// scan — so all suspect sets are suffixes of one order, totally ordered by
// containment.
func SnapshotChain(n, f int, seed int64) core.Oracle {
	s := newSampler(n, seed)
	pos := make([]int, n) // a process's place in the round's write order
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		order := s.shuffled(active)
		for idx, p := range order {
			pos[p] = idx
		}
		sus := s.rows()
		active.ForEach(func(i core.PID) {
			// Scan point: between max(own write+1, len−f) and len.
			lo := pos[i] + 1
			if m := len(order) - f; m > lo {
				lo = m
			}
			scan := lo + s.rng.Intn(len(order)-lo+1)
			for _, p := range order[scan:] {
				sus[i].Add(p)
			}
		})
		return core.RoundPlan{Suspects: sus}
	})
}

// OrderedBlocks returns an adversary for the iterated immediate-snapshot
// model (the paper's reference [4]): each round it partitions the active
// processes into an ordered sequence of concurrency blocks B_1,...,B_m and
// gives every process in B_k the view B_1 ∪ ... ∪ B_k — exactly the view
// structure of a one-shot immediate snapshot, so the induced suspect sets
// satisfy self-inclusion, the containment chain, AND immediacy.
func OrderedBlocks(n int, seed int64) core.Oracle {
	s := newSampler(n, seed)
	full := core.FullSet(n)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		members := s.shuffled(active)
		sus := s.rows()
		prefix := &s.pool
		prefix.Clear()
		idx := 0
		for idx < len(members) {
			// Block size between 1 and the remainder.
			size := 1 + s.rng.Intn(len(members)-idx)
			block := members[idx : idx+size]
			for _, p := range block {
				prefix.Add(p)
			}
			for _, p := range block {
				sus[p].CopyFrom(full)
				sus[p].DiffInto(*prefix)
			}
			idx += size
		}
		return core.RoundPlan{Suspects: sus}
	})
}

// NoMutualMissOracle returns an adversary for the alternative shared-memory
// clause of §2 item 4: eq. (3) plus "p_j ∈ D(i,r) ⇒ p_i ∉ D(j,r)". The
// paper notes this does NOT imply eq. (4): misses may form a cycle
// (p_1 misses p_2 misses ... misses p_1), so nobody is seen by all — the
// adversary is biased toward building exactly such cycles, which is what
// the E4 conjecture experiment needs.
func NoMutualMissOracle(n, f int, seed int64) core.Oracle {
	s := newSampler(n, seed)
	extra := core.NewSet(n)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := s.rows()
		if live := active.Count(); live >= 3 && s.rng.Intn(2) == 0 && f >= 1 {
			// Build a miss cycle over a random subset.
			size := 3 + s.rng.Intn(live-2)
			cyc := s.shuffled(active)[:size]
			for i, p := range cyc {
				sus[p].Add(cyc[(i+1)%size])
			}
		}
		// Random extra one-way misses within budget.
		active.ForEach(func(i core.PID) {
			s.pool.CopyFrom(active)
			s.pool.Remove(i)
			s.pickK(&extra, s.pool, f-sus[i].Count())
			extra.ForEach(func(j core.PID) {
				if !sus[j].Has(i) && sus[i].Count() < f {
					sus[i].Add(j)
				}
			})
		})
		return core.RoundPlan{Suspects: sus}
	})
}

// BSystemOracle returns an adversary for the "B system" of §2 item 3: in
// every round a set Q of at most t processes may each miss up to t others,
// while all remaining processes miss at most f. With f < t and 2t < n the
// paper uses B to show eq. (3) is not the weakest RRFD equivalent to
// f-resilient asynchronous message passing.
func BSystemOracle(n, f, t int, seed int64) core.Oracle {
	s := newSampler(n, seed)
	q := core.NewSet(n)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		s.pickK(&q, active, t)
		sus := s.rows()
		active.ForEach(func(i core.PID) {
			budget := f
			if q.Has(i) {
				budget = t
			}
			s.pool.CopyFrom(active)
			s.pool.Remove(i)
			s.pickK(&sus[i], s.pool, budget)
		})
		return core.RoundPlan{Suspects: sus}
	})
}
