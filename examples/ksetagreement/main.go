// k-set agreement in ONE round (Theorem 3.1).
//
// The §3 detector bounds each round's "uncertainty" — the processes
// suspected by some but not all — below k. Under it, emitting your input
// and adopting the value of the smallest unsuspected identifier solves
// k-set agreement immediately. This example sweeps k and hostile seeds,
// reports the distinct-decision counts, and contrasts the synchronous
// route, which needs ⌊f/k⌋+1 rounds.
//
//	go run ./examples/ksetagreement
package main

import (
	"fmt"
	"log"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
)

func main() {
	const n = 12
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i * 11 // anything distinct
	}

	fmt.Println("one-round k-set agreement under the §3 detector (n = 12):")
	fmt.Println("  k   runs   worst #distinct   rounds")
	for _, k := range []int{1, 2, 3, 4, 6} {
		worst, rounds := 0, 0
		const runs = 300
		for seed := int64(0); seed < runs; seed++ {
			res, err := core.Run(n, inputs, agreement.OneRoundKSet(), adversary.KSetUncertainty(n, k, seed))
			if err != nil {
				log.Fatal(err)
			}
			if err := agreement.Validate(res, inputs, k, 1); err != nil {
				log.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			if d := res.DistinctOutputs(); d > worst {
				worst = d
			}
			if res.Rounds > rounds {
				rounds = res.Rounds
			}
		}
		fmt.Printf("  %d   %4d   %15d   %6d\n", k, runs, worst, rounds)
	}

	// The same detector arises from an atomic-snapshot system with k−1
	// crash failures (Corollary 3.2): run the very same algorithm under
	// the snapshot adversary.
	fmt.Println("\nCorollary 3.2: snapshot RRFD with f = k−1 solves k-set agreement:")
	for _, k := range []int{2, 4} {
		res, err := core.Run(n, inputs, agreement.OneRoundKSet(), adversary.SnapshotChain(n, k-1, 7))
		if err != nil {
			log.Fatal(err)
		}
		if err := agreement.Validate(res, inputs, k, 1); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  k=%d: %d distinct decision(s) in %d round\n", k, res.DistinctOutputs(), res.Rounds)
	}

	// Contrast: the synchronous crash model needs ⌊f/k⌋+1 rounds of
	// FloodMin for the same guarantee.
	f, k := 6, 2
	need := f/k + 1
	res, err := core.Run(n, idInputs(n), agreement.FloodMin(need), adversary.ChainCrash(n, f, k))
	if err != nil {
		log.Fatal(err)
	}
	if err := agreement.Validate(res, idInputs(n), k, need); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsynchronous route (f=%d, k=%d): FloodMin needed %d rounds — the detector collapses it to 1\n",
		f, k, need)
}

func idInputs(n int) []core.Value {
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	return inputs
}
