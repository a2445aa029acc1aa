package predicate_test

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/predicate"
)

// A model is a hoalg expression compiled to a predicate: check a recorded
// execution against it, or prove implications exhaustively over tiny
// universes.
func ExampleP() {
	tr, err := core.CollectTrace(6, 8, adversary.SnapshotChain(6, 2, 3))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("item 5:", hoalg.AtomicSnapshot(2).Compile().Check(tr))

	checked, satisfying, err := predicate.ExhaustiveImplies(3, 1,
		hoalg.Identical().Compile(), hoalg.KSetEq3(1).Compile())
	fmt.Printf("eq5 ⇒ kset(1): %v over %d traces (%d satisfy eq5)\n", err == nil, checked, satisfying)
	// Output:
	// item 5: <nil>
	// eq5 ⇒ kset(1): true over 343 traces (7 satisfy eq5)
}
