package semisync_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/semisync"
)

// The semi-synchronous model of §5: consensus in exactly two steps per
// process, versus the 2n-step baseline.
func ExampleRunTwoStep() {
	const n = 16
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	fast, err := semisync.RunTwoStep(n, 1, semisync.Config{Chooser: core.Seeded(1)}, inputs)
	if err != nil {
		fmt.Println(err)
		return
	}
	slow, err := semisync.Run(n, semisync.Config{Chooser: core.RoundRobin()},
		semisync.RelayFactory(), inputs)
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
