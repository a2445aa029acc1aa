package agreement_test

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
)

// Theorem 3.1: under the detector with per-round uncertainty below k, k-set
// agreement is solved in ONE round.
func ExampleOneRoundKSet() {
	const n, k = 8, 2
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	res, err := core.Run(n, inputs, agreement.OneRoundKSet(), adversary.KSetUncertainty(n, k, 7))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("k-agreement:", agreement.Validate(res, inputs, k, 1))
	// Output:
	// rounds: 1
	// k-agreement: <nil>
}
