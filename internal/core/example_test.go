package core_test

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/hoalg"
)

// Consensus under the detector-S RRFD of §2 item 6: up to n−1 processes may
// be suspected arbitrarily, but one (unknown) process never is, and the
// rotating-coordinator algorithm decides in n rounds.
func Example() {
	const n = 5
	inputs := []core.Value{"red", "green", "blue", "cyan", "plum"}
	oracle := adversary.SpareNeverSuspected(n, 3, 42)

	res, err := core.Run(n, inputs, agreement.RotatingCoordinator(), oracle)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("distinct decisions:", res.DistinctOutputs())
	fmt.Println("never suspected:", res.Trace.NeverSuspected())
	fmt.Println("predicate:", hoalg.NeverSuspected().Compile().Check(res.Trace))
	// Output:
	// distinct decisions: 1
	// never suspected: {3}
	// predicate: <nil>
}
