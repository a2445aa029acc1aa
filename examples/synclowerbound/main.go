// The ⌊f/k⌋+1 synchronous lower bound, by reduction (Corollaries 4.2/4.4).
//
// The paper's §4 shows an asynchronous snapshot system with at most k crash
// failures can simulate the first ⌊f/k⌋ rounds of a synchronous system with
// f crash faults (Theorem 4.3, via the adopt-commit protocol). If any
// ⌊f/k⌋-round k-set agreement algorithm existed, the simulation would yield
// an asynchronous k-resilient k-set algorithm — which is impossible. This
// example demonstrates all three faces of the bound:
//
//  1. tightness: FloodMin with ⌊f/k⌋+1 rounds survives the chain adversary;
//
//  2. the bound: FloodMin truncated to ⌊f/k⌋ rounds outputs k+1 distinct
//     values under the same adversary;
//
//  3. the reduction: the truncated algorithm run THROUGH the Theorem 4.3
//     simulation breaks k-agreement under a staircase schedule with zero
//     real crashes — asynchrony alone manufactures the synchronous worst
//     case.
//
//     go run ./examples/synclowerbound
package main

import (
	"fmt"
	"log"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/predicate"
	"repro/internal/simulate"
	"repro/internal/swmr"
)

func main() {
	n, f, k := 10, 4, 2
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	need := f/k + 1

	// 1. Tightness at ⌊f/k⌋+1 rounds.
	res, err := core.Run(n, inputs, agreement.FloodMin(need), adversary.ChainCrash(n, f, k))
	if err != nil {
		log.Fatal(err)
	}
	if err := agreement.Validate(res, inputs, k, need); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FloodMin, %d rounds (=⌊f/k⌋+1): %d distinct decision(s) — %d-set agreement holds\n",
		need, res.DistinctOutputs(), k)

	// 2. One round less: the chain adversary hides values 0..k−1 at k
	// distinct survivors while everyone else holds k.
	trunc, err := core.Run(n, inputs, agreement.FloodMin(need-1), adversary.ChainCrash(n, f, k))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FloodMin, %d rounds (=⌊f/k⌋):   %d distinct decisions — VIOLATES %d-set agreement\n",
		need-1, trunc.DistinctOutputs(), k)

	// 3. The reduction: same violation through the full Theorem 4.3
	// machinery (snapshot + adopt-commit), no real crashes at all.
	sn, sf, sk := 4, 2, 2
	sim, err := simulate.CrashSync(sn, sf, sk, sf/sk,
		swmr.Config{Chooser: core.PriorityGroups(
			[]core.PID{2, 3}, []core.PID{1}, []core.PID{0},
		)},
		agreement.FloodMin(sf/sk), inputs[:sn])
	if err != nil {
		log.Fatal(err)
	}
	if err := predicate.SyncCrash(sf).Check(sim.Result.Trace); err != nil {
		log.Fatal(err) // the simulated execution must still be legal
	}
	fmt.Printf("\nTheorem 4.3 simulation (n=%d, f=%d, k=%d, %d round, staircase schedule):\n",
		sn, sf, sk, sf/sk)
	fmt.Printf("  real crashes: %d, simulated trace: legal sync-crash execution\n", sim.RealCrashes.Count())
	fmt.Printf("  decisions: %v — %d distinct > k=%d\n", sim.Result.Outputs, sim.Result.DistinctOutputs(), sk)
	fmt.Println("  a correct ⌊f/k⌋-round algorithm would contradict async k-set impossibility — hence the bound")
}
