// Package detector connects the paper's RRFDs to the classical failure
// detectors of Chandra, Hadzilacos and Toueg (§2 item 6 and the §7 research
// direction). The classical detector S satisfies:
//
//   - strong completeness: every process that crashes is eventually
//     suspected permanently by every correct process;
//   - weak accuracy: some correct process is never suspected by anyone.
//
// The paper's observation is that the RRFD counterpart of an asynchronous
// system augmented with S is simply the predicate "some process appears in
// no D(i,r)" (NeverSuspectedExists) — strong completeness comes for free in
// a round-based system, because an unsuspected crashed process would block
// the round forever, vacuously implementing anything. The package provides
// the conversion in both directions and the predicate-manipulation
// equivalence the paper uses to reduce wait-free consensus with S to
// consensus in the synchronous send-omission model with f = n−1.
package detector

import (
	"fmt"

	"repro/internal/core"
)

// History records classical failure-detector output over discrete time:
// At(t)[p] is the set of processes p suspects at time t (1-based).
type History struct {
	// N is the number of processes.
	N int

	// Suspicions[t-1][p] is process p's suspect set at time t.
	Suspicions [][]core.Set
}

// Len returns the number of recorded time steps.
func (h *History) Len() int { return len(h.Suspicions) }

// At returns the suspicion sets at time t (1-based), or nil if out of
// range.
func (h *History) At(t int) []core.Set {
	if t < 1 || t > len(h.Suspicions) {
		return nil
	}
	return h.Suspicions[t-1]
}

// EverSuspected returns the processes suspected by anyone at any time.
func (h *History) EverSuspected() core.Set {
	u := core.NewSet(h.N)
	for _, step := range h.Suspicions {
		for _, s := range step {
			u = u.Union(s)
		}
	}
	return u
}

// CheckWeakAccuracy verifies S's accuracy property over the history: some
// process is never suspected by anyone. (In the RRFD reading this is
// exactly the neversusp clause, hoalg.NeverSuspected.)
func (h *History) CheckWeakAccuracy() error {
	if ever := h.EverSuspected(); ever.Count() >= h.N {
		return fmt.Errorf("detector: weak accuracy violated: every process suspected (%s)", ever)
	}
	return nil
}

// CheckStrongCompleteness verifies that every process in crashed is, from
// some time on, suspected by every process in correct at every later time.
func (h *History) CheckStrongCompleteness(crashed, correct core.Set) error {
	var err error
	crashed.ForEach(func(c core.PID) {
		if err != nil {
			return
		}
		// Find the last time some correct process does NOT suspect c;
		// completeness needs that to be strictly before the end.
		lastMiss := 0
		for t := 1; t <= h.Len(); t++ {
			step := h.At(t)
			correct.ForEach(func(p core.PID) {
				if !step[p].Has(c) {
					lastMiss = t
				}
			})
		}
		if lastMiss == h.Len() {
			err = fmt.Errorf("detector: strong completeness violated: crashed %d unsuspected at the end", c)
		}
	})
	return err
}

// FromTrace reads an RRFD execution as a classical detector history: the
// round-r suspicion of process p is D(p,r). If the trace satisfies the §2
// item 6 predicate, the resulting history satisfies weak accuracy; if the
// execution's crashed processes were (as the engine enforces) suspected by
// all once dead, it satisfies strong completeness too.
func FromTrace(t *core.Trace) *History {
	h := &History{N: t.N}
	for _, rec := range t.Rounds {
		step := make([]core.Set, t.N)
		for i := 0; i < t.N; i++ {
			step[i] = rec.Suspects[i].Clone()
		}
		h.Suspicions = append(h.Suspicions, step)
	}
	return h
}

// Oracle adapts a classical detector history into an RRFD adversary: in
// round r, process p's suspect set is its detector output at time r (the
// processes p gave up waiting for), clipped so the plan stays legal
// (D ≠ S, and p never suspects itself — waiting for oneself is free).
// Rounds beyond the history reuse its final step.
//
// This is the §2 item 6 construction: "processes use the failure detector S
// to advance from one round to the next; D(i,r) is the value that allows
// p_i to complete round r".
func Oracle(h *History) core.Oracle {
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		t := r
		if t > h.Len() {
			t = h.Len()
		}
		step := h.At(t)
		sus := make([]core.Set, h.N)
		for i := 0; i < h.N; i++ {
			p := core.PID(i)
			if !active.Has(p) {
				sus[i] = core.NewSet(h.N)
				continue
			}
			d := step[i].Intersect(active)
			d.Remove(p)
			sus[i] = d
		}
		return core.RoundPlan{Suspects: sus}
	})
}
