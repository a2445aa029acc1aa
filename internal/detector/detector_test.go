package detector

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/predicate"
)

// randomSHistory builds a classical S history over n processes and T steps:
// the process `accurate` is never suspected; everyone else is suspected at
// random.
func randomSHistory(n, steps int, accurate core.PID, seed int64) *History {
	rng := rand.New(rand.NewSource(seed))
	h := &History{N: n}
	for t := 0; t < steps; t++ {
		step := make([]core.Set, n)
		for i := 0; i < n; i++ {
			s := core.NewSet(n)
			for j := 0; j < n; j++ {
				if core.PID(j) != accurate && rng.Intn(3) == 0 {
					s.Add(core.PID(j))
				}
			}
			step[i] = s
		}
		h.Suspicions = append(h.Suspicions, step)
	}
	return h
}

func TestWeakAccuracy(t *testing.T) {
	h := randomSHistory(5, 8, 2, 1)
	if err := h.CheckWeakAccuracy(); err != nil {
		t.Fatal(err)
	}
	// Break it: have everyone suspected at least once.
	bad := randomSHistory(3, 2, 0, 1)
	bad.Suspicions[0][1].Add(0)
	bad.Suspicions[0][0].Add(1)
	bad.Suspicions[1][0].Add(2)
	if err := bad.CheckWeakAccuracy(); err == nil {
		t.Fatal("expected weak accuracy violation")
	}
}

func TestStrongCompleteness(t *testing.T) {
	n := 4
	h := &History{N: n}
	// p3 crashes; correct = {0,1,2}. From time 2 on, all correct suspect
	// p3.
	for t1 := 1; t1 <= 4; t1++ {
		step := make([]core.Set, n)
		for i := 0; i < n; i++ {
			s := core.NewSet(n)
			if t1 >= 2 {
				s.Add(3)
			}
			step[i] = s
		}
		h.Suspicions = append(h.Suspicions, step)
	}
	correct := core.SetOf(n, 0, 1, 2)
	if err := h.CheckStrongCompleteness(core.SetOf(n, 3), correct); err != nil {
		t.Fatal(err)
	}
	// Break it: p1 stops suspecting p3 at the last step.
	h.Suspicions[3][1].Remove(3)
	if err := h.CheckStrongCompleteness(core.SetOf(n, 3), correct); err == nil {
		t.Fatal("expected completeness violation")
	}
}

func TestFromTraceSatisfiesS(t *testing.T) {
	// An item-6 RRFD execution, read as a detector history, satisfies
	// weak accuracy.
	n := 6
	tr, err := core.CollectTrace(n, 8, adversary.SpareNeverSuspected(n, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	h := FromTrace(tr)
	if h.Len() != 8 {
		t.Fatalf("history has %d steps", h.Len())
	}
	if err := h.CheckWeakAccuracy(); err != nil {
		t.Fatal(err)
	}
}

func TestOracleRoundTrip(t *testing.T) {
	// Classical S history → RRFD adversary → trace: the trace must
	// satisfy the item 6 predicate, and the paper's equivalent predicate
	// (eq. (1)'s budget clause with f = n−1).
	n := 6
	for spare := core.PID(0); spare < core.PID(n); spare++ {
		h := randomSHistory(n, 10, spare, int64(spare))
		tr, err := core.CollectTrace(n, 10, Oracle(h))
		if err != nil {
			t.Fatal(err)
		}
		if err := predicate.NeverSuspectedExists().Check(tr); err != nil {
			t.Fatalf("spare %d: %v", spare, err)
		}
		if err := predicate.TotalSuspectBudget(n - 1).Check(tr); err != nil {
			t.Fatalf("spare %d: %v", spare, err)
		}
	}
}

func TestPredicateEquivalenceItem6(t *testing.T) {
	// The paper's predicate manipulation: "some process never suspected"
	// is the same as |⋃⋃D| < n. Check both implications over hostile
	// generators.
	n := 6
	gen := func(seed int64) (*core.Trace, error) {
		return core.CollectTrace(n, 8, adversary.SpareNeverSuspected(n, core.PID(seed%int64(n)), seed))
	}
	if err := predicate.Implies(gen, predicate.NeverSuspectedExists(), predicate.TotalSuspectBudget(n-1), 60); err != nil {
		t.Fatal(err)
	}
	if err := predicate.Implies(gen, predicate.TotalSuspectBudget(n-1), predicate.NeverSuspectedExists(), 60); err != nil {
		t.Fatal(err)
	}
}

func TestConsensusWithClassicalS(t *testing.T) {
	// End to end: a classical S history drives the RRFD engine and the
	// rotating-coordinator algorithm solves consensus — the Chandra–Toueg
	// result rederived inside the RRFD framework.
	n := 6
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i * 10
	}
	for seed := int64(0); seed < 20; seed++ {
		h := randomSHistory(n, n+2, core.PID(seed)%core.PID(n), seed)
		res, err := core.Run(n, inputs, agreement.RotatingCoordinator(), Oracle(h))
		if err != nil {
			t.Fatal(err)
		}
		if err := agreement.Validate(res, inputs, 1, n); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
