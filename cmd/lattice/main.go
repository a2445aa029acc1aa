// Command lattice prints the RRFD submodel lattice: for every ordered pair
// of model predicates it decides, by EXHAUSTIVE enumeration of a tiny
// universe, whether the implication holds there (⇒), fails with
// counterexamples (✗ plus the witness count), or holds vacuously (·).
//
// An implication that holds for the tiny universe is not in general a
// theorem for all n, but every ✗ is a genuine counterexample, and the ⇒
// entries reproduce exactly the submodel structure §2 of the paper sets
// up; the legend lists the edges it expects, and main_test.go holds the
// matrix to them.
//
// Usage:
//
//	go run ./cmd/lattice             # n=3, 1 round
//	go run ./cmd/lattice -rounds 2   # n=3, 2 rounds (117k traces/pair)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/hoalg"
	"repro/internal/obs"
	"repro/internal/predicate"
)

func main() {
	rounds := flag.Int("rounds", 1, "rounds per trace: 1, or 2 for the temporal predicates (117k traces a cell)")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /snapshot and /debug/pprof on this address (the exhaustive sweeps are CPU-bound; e.g. localhost:6060)")
	flag.Parse()
	if *telemetryAddr != "" {
		srv, err := obs.ServeTelemetry(*telemetryAddr, obs.NewMetrics())
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry listener: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry listening on http://%s/ (/metrics, /snapshot, /debug/pprof/)\n", srv.Addr())
	}
	if err := run(os.Stdout, *rounds); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// n is the universe size: (2^n − 1)^(n·rounds) traces a cell.
const n = 3

// models are the matrix's rows and columns, in order.
var models = []struct {
	name string
	expr *hoalg.Expr
}{
	{"omission(1)", hoalg.SendOmission(1)},
	{"crash(1)", hoalg.SyncCrash(1)},
	{"async(1)", hoalg.PerRound(1)},
	{"shmem(1)", hoalg.SharedMemory(1)},
	{"snap(1)", hoalg.AtomicSnapshot(1)},
	{"iis", hoalg.ImmediateSnapshot(n)},
	{"kset(1)", hoalg.KSetEq3(1)},
	{"kset(2)", hoalg.KSetEq3(2)},
	{"eq5", hoalg.Identical()},
	{"S", hoalg.NeverSuspected()},
	{"nomutual", hoalg.NoMutualMiss()},
	{"snap(2)", hoalg.AtomicSnapshot(n - 1)},
	{"atmost(2)", hoalg.AtMostSuspected(n - 1)},
}

// edges are the (row, column) cells §2 of the paper says read ⇒, each at
// the budget it holds at: iis is wait-free (budget n−1), and S is eq. (1)'s
// budget clause at f = n−1 without its self-trust clause.
var edges = [][2]string{
	{"crash(1)", "omission(1)"},
	{"iis", "snap(2)"},
	{"snap(1)", "shmem(1)"},
	{"shmem(1)", "async(1)"},
	{"eq5", "kset(1)"},
	{"kset(1)", "kset(2)"},
	{"snap(1)", "kset(2)"},
	{"S", "atmost(2)"},
	{"atmost(2)", "S"},
}

func run(w io.Writer, rounds int) error {
	cells, err := matrix(rounds)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "RRFD submodel lattice over the exhaustive n=%d, %d-round universe\n", n, rounds)
	fmt.Fprintf(w, "cell: row ⇒ column?   ⇒ holds   ✗k fails with k witnesses   · vacuous premise\n\n")

	fmt.Fprintf(w, "%-12s", "")
	for _, c := range models {
		fmt.Fprintf(w, "%-12s", c.name)
	}
	fmt.Fprintln(w)
	for i, a := range models {
		fmt.Fprintf(w, "%-12s", a.name)
		for _, cell := range cells[i] {
			fmt.Fprintf(w, "%-12s", cell)
		}
		fmt.Fprintln(w)
	}
	legend := make([]string, len(edges))
	for i, e := range edges {
		legend[i] = e[0] + "→" + e[1]
	}
	fmt.Fprintf(w, "\nexpected ⇒ edges (paper §2): %s\n", strings.Join(legend, ", "))
	return nil
}

// matrix classifies every ordered pair of models: cells[i][j] says whether
// models[i] implies models[j] over the universe.
func matrix(rounds int) ([][]string, error) {
	if rounds < 1 || rounds > 2 {
		return nil, fmt.Errorf("lattice: -rounds must be 1 or 2, got %d", rounds)
	}
	preds := make([]predicate.P, len(models))
	for i, m := range models {
		preds[i] = m.expr.Compile()
	}
	cells := make([][]string, len(preds))
	for i, a := range preds {
		for _, b := range preds {
			satisfying, witnesses, err := predicate.ExhaustiveWitnesses(n, rounds, a, b)
			if err != nil {
				return nil, err
			}
			cell := "⇒"
			switch {
			case witnesses > 0:
				cell = fmt.Sprintf("✗%d", witnesses)
			case satisfying == 0:
				cell = "·"
			}
			cells[i] = append(cells[i], cell)
		}
	}
	return cells, nil
}
