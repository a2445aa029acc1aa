// Command lattice prints the RRFD submodel lattice: for every ordered pair
// of model predicates it decides, by EXHAUSTIVE enumeration of a tiny
// universe, whether the implication holds there (⇒), fails with
// counterexamples (✗ plus the witness count), or holds vacuously (·).
//
// An implication that holds for the tiny universe is not in general a
// theorem for all n, but every ✗ is a genuine counterexample, and the ⇒
// entries reproduce exactly the submodel structure §2 of the paper sets
// up.
//
// Usage:
//
//	go run ./cmd/lattice             # n=3, 1 round
//	go run ./cmd/lattice -rounds 2   # n=3, 2 rounds (117k traces/pair)
package main

import (
	"flag"
	"fmt"
	"os"

	rrfd "repro"
)

func main() {
	rounds := flag.Int("rounds", 1, "rounds per trace (1 or 2; 2 covers temporal predicates)")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /snapshot and /debug/pprof on this address (the exhaustive sweeps are CPU-bound; e.g. localhost:6060)")
	flag.Parse()
	if *telemetryAddr != "" {
		srv, err := rrfd.ServeTelemetry(*telemetryAddr, rrfd.NewTelemetry())
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry listener: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry listening on http://%s/ (/metrics, /snapshot, /debug/pprof/)\n", srv.Addr())
	}
	if err := run(*rounds); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(rounds int) error {
	const n = 3
	type entry struct {
		name string
		p    rrfd.Predicate
	}
	preds := []entry{
		{"omission(1)", rrfd.SendOmission(1)},
		{"crash(1)", rrfd.SyncCrash(1)},
		{"async(1)", rrfd.PerRoundBudget(1)},
		{"shmem(1)", rrfd.SharedMemory(1)},
		{"snap(1)", rrfd.AtomicSnapshot(1)},
		{"iis", rrfd.ImmediateSnapshot(n)},
		{"kset(1)", rrfd.KSetDetector(1)},
		{"kset(2)", rrfd.KSetDetector(2)},
		{"eq5", rrfd.IdenticalSuspects()},
		{"S", rrfd.NeverSuspectedExists()},
		{"nomutual", rrfd.NoMutualMiss()},
	}

	fmt.Printf("RRFD submodel lattice over the exhaustive n=%d, %d-round universe\n", n, rounds)
	fmt.Printf("cell: row ⇒ column?   ⇒ holds   ✗k fails with k witnesses   · vacuous premise\n\n")

	// Header.
	fmt.Printf("%-12s", "")
	for _, c := range preds {
		fmt.Printf("%-12s", c.name)
	}
	fmt.Println()

	for _, a := range preds {
		fmt.Printf("%-12s", a.name)
		for _, b := range preds {
			cell, err := classify(n, rounds, a.p, b.p)
			if err != nil {
				return err
			}
			fmt.Printf("%-12s", cell)
		}
		fmt.Println()
	}
	fmt.Println("\nexpected ⇒ edges (paper §2): crash→omission, iis→snap→shmem→async,")
	fmt.Println("eq5→kset(1)→kset(2), snap(1)→kset(2); S ⇔ omission with f=n−1")
	return nil
}

func classify(n, rounds int, a, b rrfd.Predicate) (string, error) {
	checked, witnesses, err := rrfd.ExhaustiveWitnesses(n, rounds, a, b)
	if err != nil {
		return "", err
	}
	_ = checked
	if witnesses > 0 {
		return fmt.Sprintf("✗%d", witnesses), nil
	}
	// Distinguish a real implication from a vacuous premise.
	satisfying := 0
	err = rrfd.ExhaustiveTraces(n, rounds, func(t *rrfd.Trace) error {
		if a.Check(t) == nil {
			satisfying++
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if satisfying == 0 {
		return "·", nil
	}
	return "⇒", nil
}
