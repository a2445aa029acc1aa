package rrfd_test

import (
	"fmt"

	rrfd "repro"
)

// Consensus under the detector-S RRFD of §2 item 6: up to n−1 processes may
// be suspected arbitrarily, but one (unknown) process never is, and the
// rotating-coordinator algorithm decides in n rounds.
func Example() {
	const n = 5
	inputs := []rrfd.Value{"red", "green", "blue", "cyan", "plum"}
	oracle := rrfd.SpareNeverSuspected(n, 3, 42)

	res, err := rrfd.Run(n, inputs, rrfd.RotatingCoordinator(), oracle)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("distinct decisions:", res.DistinctOutputs())
	fmt.Println("never suspected:", res.Trace.NeverSuspected())
	fmt.Println("predicate:", rrfd.NeverSuspectedExists().Check(res.Trace))
	// Output:
	// distinct decisions: 1
	// never suspected: {3}
	// predicate: <nil>
}

// Theorem 3.1: under the detector with per-round uncertainty below k, k-set
// agreement is solved in ONE round.
func ExampleOneRoundKSet() {
	const n, k = 8, 2
	inputs := make([]rrfd.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	res, err := rrfd.Run(n, inputs, rrfd.OneRoundKSet(), rrfd.KSetUncertainty(n, k, 7))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("k-agreement:", rrfd.ValidateAgreement(res, inputs, k, 1))
	// Output:
	// rounds: 1
	// k-agreement: <nil>
}

// Predicates are first-class: check a recorded execution against a model,
// or prove implications exhaustively over tiny universes.
func ExamplePredicate() {
	tr, err := rrfd.CollectTrace(6, 8, rrfd.SnapshotChain(6, 2, 3))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("item 5:", rrfd.AtomicSnapshot(2).Check(tr))

	checked, satisfying, err := rrfd.ExhaustiveImplies(3, 1,
		rrfd.IdenticalSuspects(), rrfd.KSetDetector(1))
	fmt.Printf("eq5 ⇒ kset(1): %v over %d traces (%d satisfy eq5)\n", err == nil, checked, satisfying)
	// Output:
	// item 5: <nil>
	// eq5 ⇒ kset(1): true over 343 traces (7 satisfy eq5)
}

// The semi-synchronous model of §5: consensus in exactly two steps per
// process, versus the 2n-step baseline.
func ExampleRunTwoStep() {
	const n = 16
	inputs := make([]rrfd.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	fast, err := rrfd.RunTwoStep(n, 1, rrfd.SemiConfig{Chooser: rrfd.Seeded(1)}, inputs)
	if err != nil {
		fmt.Println(err)
		return
	}
	slow, err := rrfd.RunSemiSync(n, rrfd.SemiConfig{Chooser: rrfd.RoundRobin()},
		rrfd.RelayFactory(), inputs)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("two-step:", fast.Outcome.MaxDecisionSteps(), "steps")
	fmt.Println("baseline:", slow.MaxDecisionSteps(), "steps")
	// Output:
	// two-step: 2 steps
	// baseline: 32 steps
}

// decisionCounter is an Observer counting first decisions.
type decisionCounter struct{ n int }

func (c *decisionCounter) Observe(e rrfd.Event) {
	if e.Kind == "decide" {
		c.n++
	}
}

// An Observer has one method over one event type: the engine reports each
// process's first decision as a "decide" event, among the rest of a run.
func ExampleObserver() {
	const n, k = 8, 2
	inputs := make([]rrfd.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	var c decisionCounter
	if _, err := rrfd.Run(n, inputs, rrfd.OneRoundKSet(), rrfd.KSetUncertainty(n, k, 7), rrfd.WithObserver(&c)); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("decisions:", c.n)
	// Output:
	// decisions: 8
}
