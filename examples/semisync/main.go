// Semi-synchronous consensus in 2 steps (§5, Theorem 5.1).
//
// In the Dolev–Dwork–Stockmeyer model variant — atomic receive/broadcast
// steps, reliable immediate broadcast — consensus was known to take 2n
// steps, and whether a constant-step algorithm existed was open. The paper
// answers it: two steps per process implement the eq. (5) detector (all
// suspect sets identical), and Theorem 3.1 with k = 1 then decides in one
// round. This example races the 2-step algorithm against the 2n-step relay
// baseline across system sizes.
//
//	go run ./examples/semisync
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/predicate"
	"repro/internal/semisync"
	"repro/internal/task"
)

func main() {
	fmt.Println("steps per process until consensus decision:")
	fmt.Println("   n   2-step algorithm   2n-step baseline   speedup")
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		inputs := make([]core.Value, n)
		for i := range inputs {
			inputs[i] = fmt.Sprintf("v%d", i)
		}

		fast, err := semisync.RunTwoStep(n, 1, semisync.Config{Chooser: core.Seeded(int64(n))}, inputs)
		if err != nil {
			log.Fatal(err)
		}
		// Every process must agree, and the trace must satisfy eq. (5).
		if err := predicate.IdenticalSuspects().Check(fast.Trace); err != nil {
			log.Fatal(err)
		}
		decided := func(i int) (core.Value, bool) {
			v, ok := fast.Outcome.Values[core.PID(i)]
			return v, ok
		}
		nobody := func(int) bool { return false } // no crashes: all must decide
		if vd := task.KSet(1, nil, n, decided, nobody); vd.Excess || len(vd.Undecided) > 0 {
			log.Fatalf("n=%d: disagreement: %v", n, fast.Outcome.Values)
		}

		slow, err := semisync.Run(n, semisync.Config{Chooser: core.RoundRobin()},
			semisync.RelayFactory(), inputs)
		if err != nil {
			log.Fatal(err)
		}

		fs, ss := fast.Outcome.MaxDecisionSteps(), slow.MaxDecisionSteps()
		fmt.Printf("  %2d   %16d   %16d   %6.1fx\n", n, fs, ss, float64(ss)/float64(fs))
	}
	fmt.Println("\nthe speedup grows linearly in n — the shape of the paper's open-problem answer")
}
