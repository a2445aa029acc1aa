package predicate

import (
	"fmt"

	"repro/internal/core"
)

// TraceGen produces an execution trace from a seed, or the error that kept
// it from producing one. Generators are expected to emit traces satisfying
// some source predicate; Implies checks that claim and the implication
// together.
type TraceGen func(seed int64) (*core.Trace, error)

// Implies empirically checks the submodel relation A ⇒ B of §2: every
// generated trace must satisfy a (otherwise the generator is broken and an
// error says so) and must then satisfy b. It runs trials seeds and returns
// the first counterexample, or the first generator error.
//
// This is a semi-decision procedure: passing does not prove the implication,
// but a failure is a concrete counterexample trace. The lattice experiment
// (E15) combines it with exhaustive small-universe generators.
func Implies(gen TraceGen, a, b P, trials int) error {
	for seed := int64(0); seed < int64(trials); seed++ {
		t, err := gen(seed)
		if err != nil {
			return fmt.Errorf("trace generator failed at seed %d: %w", seed, err)
		}
		if err := a.Check(t); err != nil {
			return fmt.Errorf("generator broke source predicate at seed %d: %w", seed, err)
		}
		if err := b.Check(t); err != nil {
			return fmt.Errorf("implication %s ⇒ %s fails at seed %d: %w", a.Name, b.Name, seed, err)
		}
	}
	return nil
}

// ExhaustiveTraces enumerates EVERY crash-free trace over n processes and
// rounds rounds — each D(i,r) independently ranges over all 2^n − 1 proper
// subsets of S (D = S is excluded by the model) — and calls fn on each.
// The space has (2^n − 1)^(n·rounds) traces, so keep n and rounds tiny
// (n = 3, rounds = 2 is ~1.2e5; n = 4, rounds = 1 is ~5e4). fn returning a
// non-nil error aborts the enumeration.
//
// One trace is built and walked in place: between two calls only the
// D(i,r) / S(i,r) of the slots the odometer moved are rewritten. The
// *core.Trace handed to fn is therefore valid only during that call, and fn
// must not mutate it; a caller that wants to keep a trace copies it.
func ExhaustiveTraces(n, rounds int, fn func(*core.Trace) error) error {
	if n < 1 || n > 5 || rounds < 1 {
		return fmt.Errorf("predicate: exhaustive enumeration needs 1 ≤ n ≤ 5 and rounds ≥ 1, got n=%d rounds=%d", n, rounds)
	}
	limit := uint32(1)<<n - 1 // excludes D = S

	// suspects[m] is the set with bitmask m (bit b = process b suspected),
	// heard[m] its complement: the values a slot is rewritten from.
	suspects := make([]core.Set, limit)
	heard := make([]core.Set, limit)
	for m := range suspects {
		d := core.NewSet(n)
		for b := 0; b < n; b++ {
			if m&(1<<b) != 0 {
				d.Add(core.PID(b))
			}
		}
		suspects[m], heard[m] = d, d.Complement()
	}

	t := core.NewTrace(n)
	full := core.FullSet(n)
	for r := 0; r < rounds; r++ {
		rec := core.NewRoundRecord(r+1, n)
		rec.Active.CopyFrom(full)
		for i := 0; i < n; i++ {
			rec.Deliver[i].CopyFrom(heard[0])
		}
		t.Append(rec)
	}

	slots := n * rounds
	masks := make([]uint32, slots) // masks[r*n+i] ∈ [0, 2^n−1) is D(i,r+1)
	for {
		if err := fn(t); err != nil {
			return err
		}
		// Odometer increment, rewriting each slot it moves.
		i := 0
		for ; i < slots; i++ {
			masks[i]++
			carry := masks[i] == limit
			if carry {
				masks[i] = 0
			}
			rec := &t.Rounds[i/n]
			rec.Suspects[i%n].CopyFrom(suspects[masks[i]])
			rec.Deliver[i%n].CopyFrom(heard[masks[i]])
			if !carry {
				break
			}
		}
		if i == slots {
			return nil
		}
	}
}

// ExhaustiveImplies PROVES, for the given (tiny) universe, that every trace
// satisfying a also satisfies b, by enumerating the full trace space. It
// returns the number of traces enumerated and the number satisfying a; the
// error carries the counterexample's description if the implication fails.
func ExhaustiveImplies(n, rounds int, a, b P) (checked, satisfying int, err error) {
	err = ExhaustiveTraces(n, rounds, func(t *core.Trace) error {
		checked++
		if !a.Holds(t) {
			return nil
		}
		satisfying++
		if berr := b.Check(t); berr != nil {
			return fmt.Errorf("implication %s ⇒ %s fails: %w\n%s", a.Name, b.Name, berr, t)
		}
		return nil
	})
	return checked, satisfying, err
}

// ExhaustiveWitnesses counts, over the full trace space of the given tiny
// universe, the traces satisfying a and, among them, the witnesses that
// violate b — an exact separation census. satisfying == 0 means a is
// vacuous there; witnesses == 0 < satisfying, that a ⇒ b holds there.
func ExhaustiveWitnesses(n, rounds int, a, b P) (satisfying, witnesses int, err error) {
	err = ExhaustiveTraces(n, rounds, func(t *core.Trace) error {
		if !a.Holds(t) {
			return nil
		}
		satisfying++
		if !b.Holds(t) {
			witnesses++
		}
		return nil
	})
	return satisfying, witnesses, err
}

// Separates empirically checks that A does NOT imply B by finding a witness
// trace that satisfies a but violates b. It returns the witness seed, or an
// error if no witness was found within trials seeds or a generator failed.
func Separates(gen TraceGen, a, b P, trials int) (int64, error) {
	for seed := int64(0); seed < int64(trials); seed++ {
		t, err := gen(seed)
		if err != nil {
			return 0, fmt.Errorf("trace generator failed at seed %d: %w", seed, err)
		}
		if err := a.Check(t); err != nil {
			return 0, fmt.Errorf("generator broke source predicate at seed %d: %w", seed, err)
		}
		if !b.Holds(t) {
			return seed, nil
		}
	}
	return 0, fmt.Errorf("no witness separating %s from %s in %d trials", a.Name, b.Name, trials)
}
