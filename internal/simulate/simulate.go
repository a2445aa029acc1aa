// Package simulate implements the paper's cross-model simulations:
//
//   - TwoRoundsToSharedMemory — §2 item 4: when 2f < n, two rounds of the
//     asynchronous message-passing RRFD (eq. 3) implement one round of the
//     shared-memory RRFD (eqs. 3+4).
//   - BToA — §2 item 3: two rounds of the weaker "B system" implement one
//     round of the eq.-3 system A, showing A is not the weakest RRFD
//     equivalent to f-resilient asynchronous message passing.
//   - OmissionPrefix — Theorem 4.1: the first ⌊f/k⌋ rounds of an atomic-
//     snapshot RRFD execution with per-round budget k form a legal
//     execution of the synchronous send-omission system with budget f.
//   - CrashSync (crashsync.go) — Theorem 4.3: the crash-fault version,
//     simulating each synchronous round with one snapshot round plus n
//     parallel adopt-commit protocols on the shared-memory substrate.
//
// All transformations operate on, or produce, core.Trace values so the
// resulting executions can be validated against the target model's
// predicate — which is exactly what "implements" means in the paper.
package simulate

import (
	"fmt"

	"repro/internal/core"
)

// TwoRoundsToSharedMemory derives the simulated shared-memory execution
// from a trace of the eq.-3 system: simulated round ρ is built from base
// rounds 2ρ−1 and 2ρ. In the second base round each process relays the set
// of processes it heard in the first; the simulated reception set is
//
//	S_sim(i,ρ) = ⋃_{j ∈ S(i,2ρ)} S(j,2ρ−1),
//
// and D_sim is its complement. The paper's argument: every process hears a
// majority in the first round (|D| ≤ f < n/2), so some process is heard by
// a majority there, and any majority of second-round relays must include
// one of its witnesses — that process is known to all, giving eq. (4).
//
// The input trace must have an even number of rounds and every process
// active throughout (the construction is for the failure-free-by-
// indistinguishability regime of the RRFD model).
func TwoRoundsToSharedMemory(t *core.Trace) (*core.Trace, error) {
	return twoRoundsToOne(t, func(i, _ int, first, second *core.RoundRecord) (core.Set, error) {
		heard := core.NewSet(t.N)
		second.Deliver[i].ForEach(func(j core.PID) {
			heard = heard.Union(first.Deliver[j])
		})
		return heard.Complement(), nil
	})
}

// twoRoundsToOne is the skeleton both two-for-one trace derivations share:
// simulated round ρ is built from base rounds 2ρ−1 and 2ρ, Active and
// Crashed are those of the first, a process that missed either base round
// is inactive, and every other process i gets D_sim(i,ρ) from derive (its
// complement is the simulated reception set).
func twoRoundsToOne(t *core.Trace, derive func(i, rho int, first, second *core.RoundRecord) (core.Set, error)) (*core.Trace, error) {
	if t.Len()%2 != 0 {
		return nil, fmt.Errorf("simulate: need an even number of base rounds, have %d", t.Len())
	}
	n := t.N
	out := core.NewTrace(n)
	for rho := 1; rho <= t.Len()/2; rho++ {
		first := t.Round(2*rho - 1)
		second := t.Round(2 * rho)
		rec := core.NewRoundRecord(rho, n)
		rec.Active.CopyFrom(first.Active)
		rec.Crashed.CopyFrom(first.Crashed)
		for i := 0; i < n; i++ {
			pid := core.PID(i)
			if !first.Active.Has(pid) || !second.Active.Has(pid) {
				rec.Active.Remove(pid)
				continue
			}
			d, err := derive(i, rho, first, second)
			if err != nil {
				return nil, err
			}
			rec.Suspects[i] = d
			rec.Deliver[i] = d.Complement()
		}
		out.Append(rec)
	}
	return out, nil
}

// BToA derives a round of the eq.-3 system A (per-round budget f) from two
// rounds of the B system (where up to t processes may miss up to t others,
// f < t, 2t < n). Process i adopts, as its simulated round view, the
// first-round view of any of its second-round sources whose first-round
// suspect set fits the f budget:
//
//	D_sim(i,ρ) = D(s,2ρ−1) for some s ∈ S(i,2ρ) with |D(s,2ρ−1)| ≤ f.
//
// Such a source always exists: i hears at least n−t processes in the second
// round, at most t of which exceeded the f budget in the first, and
// n−t > t because 2t < n. (The full-information protocol realizes the
// adoption by relaying first-round views.)
func BToA(t *core.Trace, f int) (*core.Trace, error) {
	return twoRoundsToOne(t, func(i, rho int, first, second *core.RoundRecord) (core.Set, error) {
		var chosen core.Set
		found := false
		second.Deliver[i].ForEach(func(s core.PID) {
			d := first.Suspects[s]
			if d.Count() > f {
				return
			}
			if !found || d.Count() < chosen.Count() {
				chosen, found = d, true
			}
		})
		if !found {
			return core.Set{}, fmt.Errorf("simulate: process %d has no f-budget source at simulated round %d", i, rho)
		}
		return chosen.Clone(), nil
	})
}

// OmissionPrefix is Theorem 4.1 at the trace level: given an execution of
// the atomic-snapshot RRFD whose per-round budget is k, its first ⌊f/k⌋
// rounds are (verbatim — the mapping is the identity) a legal execution of
// the synchronous send-omission system with total budget f. It returns the
// prefix, whose cumulative suspicion is at most k·⌊f/k⌋ ≤ f.
func OmissionPrefix(t *core.Trace, f, k int) (*core.Trace, error) {
	if k <= 0 || f < k {
		return nil, fmt.Errorf("simulate: need f ≥ k > 0, got f=%d k=%d", f, k)
	}
	rounds := f / k
	if t.Len() < rounds {
		return nil, fmt.Errorf("simulate: trace has %d rounds, need at least ⌊f/k⌋ = %d", t.Len(), rounds)
	}
	return t.Prefix(rounds), nil
}
