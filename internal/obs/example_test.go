package obs_test

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/obs"
)

// decisionCounter is an Observer counting first decisions.
type decisionCounter struct{ n int }

func (c *decisionCounter) Observe(e obs.Event) {
	if e.Kind == "decide" {
		c.n++
	}
}

// An Observer has one method over one event type: the engine reports each
// process's first decision as a "decide" event, among the rest of a run.
func ExampleObserver() {
	const n, k = 8, 2
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	var c decisionCounter
	if _, err := core.Run(n, inputs, agreement.OneRoundKSet(), adversary.KSetUncertainty(n, k, 7), core.WithObserver(&c)); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("decisions:", c.n)
	// Output:
	// decisions: 8
}
