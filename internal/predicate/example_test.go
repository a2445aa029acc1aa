package predicate_test

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/predicate"
)

// Predicates are first-class: check a recorded execution against a model,
// or prove implications exhaustively over tiny universes.
func ExampleP() {
	tr, err := core.CollectTrace(6, 8, adversary.SnapshotChain(6, 2, 3))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("item 5:", predicate.AtomicSnapshot(2).Check(tr))

	checked, satisfying, err := predicate.ExhaustiveImplies(3, 1,
		predicate.IdenticalSuspects(), predicate.KSetDetector(1))
	fmt.Printf("eq5 ⇒ kset(1): %v over %d traces (%d satisfy eq5)\n", err == nil, checked, satisfying)
	// Output:
	// item 5: <nil>
	// eq5 ⇒ kset(1): true over 343 traces (7 satisfy eq5)
}
