// Quickstart: solve consensus in a round-by-round fault detector system.
//
// The system is §2 item 6 of the paper — the RRFD counterpart of an
// asynchronous system with the failure detector S: up to n−1 processes may
// be suspected arbitrarily, round after round, but one (unknown!) process
// is never suspected by anyone. The rotating-coordinator algorithm decides
// in n rounds.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/predicate"
)

func main() {
	const n = 5
	inputs := []core.Value{"red", "green", "blue", "cyan", "plum"}

	// The adversary: suspect anyone except process 3, as hostilely as the
	// model allows.
	oracle := adversary.SpareNeverSuspected(n, 3, 42 /* seed */)

	res, err := core.Run(n, inputs, agreement.RotatingCoordinator(), oracle)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("decisions:")
	for p := core.PID(0); p < n; p++ {
		fmt.Printf("  process %d decided %v at round %d\n", p, res.Outputs[p], res.DecidedAt[p])
	}

	// The trace is the adversary's behaviour; check it really was the
	// detector-S model, i.e. some process was never suspected.
	if err := predicate.NeverSuspectedExists().Check(res.Trace); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("never suspected: %s (the hidden 'accurate' process)\n", res.Trace.NeverSuspected())

	// And validate the consensus conditions mechanically.
	if err := agreement.Validate(res, inputs, 1, n); err != nil {
		log.Fatal(err)
	}
	fmt.Println("consensus: agreement, validity and termination all hold")
}
