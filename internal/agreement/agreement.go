// Package agreement implements the agreement algorithms the paper builds or
// invokes:
//
//   - OneRoundKSet — Theorem 3.1's one-round k-set agreement algorithm for
//     RRFD systems whose detector satisfies |⋃D(i,r) \ ⋂D(i,r)| < k.
//   - FloodMin — the classic synchronous k-set agreement baseline that
//     decides after ⌊f/k⌋+1 rounds of min-flooding (Chaudhuri et al.); with
//     k = 1 it is the f+1-round FloodSet consensus algorithm. Truncating it
//     one round short is the lower-bound witness of Corollaries 4.2/4.4.
//   - RotatingCoordinator — consensus for §2 item 6's RRFD (some process is
//     never suspected, the counterpart of failure detector S): n rounds of
//     coordinator adoption.
//
// All algorithms fit the core.Algorithm emit/receive contract and are
// exercised against the hostile adversaries of internal/adversary.
package agreement

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/task"
)

// Validate checks the standard k-set agreement conditions on an execution
// result — validity (every output is some process's input), k-agreement
// (at most k distinct outputs) and termination of every process that did
// not crash — and reports the first one broken. maxRound, when positive,
// additionally bounds the latest decision round.
func Validate(res *core.Result, inputs []core.Value, k, maxRound int) error {
	if v, ok := task.KSet(k, task.Inputs(inputs), len(inputs), task.ByPID(res.Outputs), task.In(res.Crashed)).Err().(*task.Violation); ok {
		if v.Index < 0 {
			return fmt.Errorf("agreement: %w", v)
		}
		return fmt.Errorf("agreement: process %d %w", v.Index, v)
	}
	if maxRound > 0 {
		if got := res.MaxDecisionRound(); got > maxRound {
			return fmt.Errorf("agreement: decision at round %d, want ≤ %d", got, maxRound)
		}
	}
	return nil
}

// oneRoundKSet is Theorem 3.1's algorithm: emit the input, then choose the
// value of the lowest-identifier process outside D(i,1).
//
// Correctness sketch (the paper's proof): if v1, v2 are chosen from p1 < p2
// then p1 ∈ ⋃D (whoever chose p2 suspected p1) but p1 ∉ ⋂D (whoever chose p1
// did not), so every chosen identifier except the globally smallest lies in
// ⋃D \ ⋂D, whose size is < k — at most k distinct values are chosen.
type oneRoundKSet struct {
	me    core.PID
	input core.Value
	obs   obs.Observer // nil unless built by OneRoundKSetObserved
}

// OneRoundKSet returns the factory for Theorem 3.1's one-round algorithm.
func OneRoundKSet() core.Factory {
	return OneRoundKSetObserved(nil)
}

// OneRoundKSetObserved is OneRoundKSet with protocol-level observability:
// each process reports the identifier it chose (the smallest unsuspected
// sender) through o as an "agreement.kset_choose" event. A nil observer
// degrades to the unobserved algorithm.
func OneRoundKSetObserved(o obs.Observer) core.Factory {
	return func(me core.PID, n int, input core.Value) core.Algorithm {
		return &oneRoundKSet{me: me, input: input, obs: o}
	}
}

func (a *oneRoundKSet) Emit(r int) core.Message { return a.input }

func (a *oneRoundKSet) Deliver(r int, msgs core.Inbox, suspects core.Set) (core.Value, bool) {
	if r != 1 {
		return nil, false // decision already made in round 1
	}
	best, chosen := core.PID(-1), core.Message(nil)
	msgs.ForEach(func(p core.PID, m core.Message) { // ascending: the first unsuspected is the lowest
		if best < 0 && !suspects.Has(p) {
			best, chosen = p, m
		}
	})
	if best < 0 {
		// Unreachable in a valid system: S(i,r) ∪ D(i,r) = S and
		// D(i,r) ≠ S guarantee an unsuspected received message.
		return nil, false
	}
	if a.obs != nil {
		a.obs.Observe(obs.Event{Kind: "agreement.kset_choose", R: r, P: int(a.me), Fields: map[string]any{"from": int(best)}})
	}
	return chosen, true
}

// floodMin is min-flooding: maintain the minimum value seen, broadcast it
// every round, decide after the configured number of rounds. Task values
// must be ints.
type floodMin struct {
	est    int
	rounds int
}

// FloodMin returns the factory for the synchronous min-flooding algorithm
// deciding after rounds rounds. For k-set agreement with f crash faults the
// correct setting is rounds = ⌊f/k⌋ + 1; smaller settings are deliberately
// incorrect and serve as lower-bound witnesses.
func FloodMin(rounds int) core.Factory {
	return func(me core.PID, n int, input core.Value) core.Algorithm {
		return &floodMin{est: input.(int), rounds: rounds}
	}
}

func (a *floodMin) Emit(r int) core.Message { return a.est }

func (a *floodMin) Deliver(r int, msgs core.Inbox, suspects core.Set) (core.Value, bool) {
	msgs.ForEach(func(_ core.PID, m core.Message) {
		if v := m.(int); v < a.est {
			a.est = v
		}
	})
	if r >= a.rounds {
		return a.est, true
	}
	return nil, false
}

// rotatingCoordinator is the consensus algorithm for the failure-detector-S
// RRFD: in round r the coordinator is process (r−1) mod n; every process
// that receives the coordinator's estimate adopts it; decide after n rounds.
// Some process p* is never suspected, so in p*'s coordinator round every
// process adopts p*'s estimate, and estimates never diverge afterwards.
type rotatingCoordinator struct {
	n   int
	est core.Value
}

// RotatingCoordinator returns the factory for the n-round coordinator
// consensus algorithm used for §2 item 6.
func RotatingCoordinator() core.Factory {
	return func(me core.PID, n int, input core.Value) core.Algorithm {
		return &rotatingCoordinator{n: n, est: input}
	}
}

func (a *rotatingCoordinator) Emit(r int) core.Message { return a.est }

func (a *rotatingCoordinator) Deliver(r int, msgs core.Inbox, suspects core.Set) (core.Value, bool) {
	coord := core.PID((r - 1) % a.n)
	if m, ok := msgs.Get(coord); ok && !suspects.Has(coord) {
		a.est = m
	}
	if r >= a.n {
		return a.est, true
	}
	return nil, false
}
