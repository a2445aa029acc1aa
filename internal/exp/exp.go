// Package exp is the experiment harness: one runner per experiment in
// DESIGN.md §5 (E01–E15), each regenerating the table recorded in
// EXPERIMENTS.md. The paper (a PODC theory extended abstract) has no
// numeric tables; its "evaluation" is its theorems and constructions, so
// every experiment here validates one theorem/construction and reports the
// measured quantities whose SHAPE the paper predicts (who wins, by what
// factor, where the bounds sit).
//
// Runners take a quick flag: quick mode shrinks sweeps for use in tests;
// full mode is what cmd/experiments runs.
package exp

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"repro/internal/par"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier (e.g. "E07").
	ID string

	// Title describes the experiment.
	Title string

	// Ref cites the paper source (section/theorem).
	Ref string

	// Columns and Rows hold the tabular results.
	Columns []string
	Rows    [][]string

	// Notes hold free-form observations printed under the table.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "(%s)\n", t.Ref)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		fmt.Fprintln(w, "  "+b.String())
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner is an experiment entry point.
type Runner struct {
	ID   string
	Name string
	Run  func(quick bool) (*Table, error)
}

// All returns every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{ID: "E01", Name: "sync send-omission ≡ eq.(1)", Run: E01SyncOmission},
		{ID: "E02", Name: "crash submodel of omission", Run: E02CrashSubmodel},
		{ID: "E03", Name: "async rounds ≡ eq.(3); B system", Run: E03AsyncRounds},
		{ID: "E04", Name: "shared memory ≡ eqs.(3)+(4); cycle conjecture", Run: E04SharedMemory},
		{ID: "E05", Name: "atomic snapshot ≡ item 5 predicate", Run: E05Snapshot},
		{ID: "E06", Name: "consensus under detector-S RRFD", Run: E06ConsensusS},
		{ID: "E07", Name: "one-round k-set agreement (Thm 3.1)", Run: E07OneRoundKSet},
		{ID: "E08", Name: "k-set with k−1 failures on snapshots (Cor 3.2)", Run: E08KSetSharedMem},
		{ID: "E09", Name: "detector from a k-set object (Thm 3.3)", Run: E09DetectorFromKSet},
		{ID: "E10", Name: "sync omission from async snapshots (Thm 4.1)", Run: E10OmissionSim},
		{ID: "E11", Name: "adopt-commit correctness (§4.2)", Run: E11AdoptCommit},
		{ID: "E12", Name: "sync crash from async snapshots (Thm 4.3)", Run: E12CrashSim},
		{ID: "E13", Name: "⌊f/k⌋+1 lower bound (Cor 4.2/4.4)", Run: E13LowerBound},
		{ID: "E14", Name: "semi-synchronous 2 vs 2n steps (Thm 5.1)", Run: E14SemiSync},
		{ID: "E15", Name: "submodel lattice", Run: E15Lattice},
		{ID: "X01", Name: "full information: FIFO + emulated write", Run: X01FullInformation},
		{ID: "X02", Name: "immediate snapshots (ref. [4])", Run: X02ImmediateSnapshot},
		{ID: "X03", Name: "ABD register over message passing (ref. [22])", Run: X03ABDRegister},
		{ID: "X04", Name: "ablations: broken variants fail observably", Run: X04Ablations},
		{ID: "X05", Name: "derived-model catalog: one expression, three artifacts", Run: X05CatalogModels},
	}
}

// verdict renders a pass/fail cell.
func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "VIOLATED"
}

// seedsFor returns the sweep width for the mode.
func seedsFor(quick bool, full int) int {
	if quick {
		if full > 8 {
			return 8
		}
		return full
	}
	return full
}

// sweepWorkers is the worker count every experiment seed sweep fans out
// over; see SetWorkers.
var sweepWorkers atomic.Int32

// SetWorkers sets how many workers the experiment seed sweeps use: n > 0
// is used as given (1 forces sequential sweeps), anything else means one
// worker per logical CPU. Tables are byte-identical for any worker count —
// seeds are fixed per index and rows are reduced in seed order — so this
// only changes wall-clock time.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	sweepWorkers.Store(int32(n))
}

// sweep runs body(seed) for seed = 0..seeds-1 across the configured
// workers and returns the per-seed results in seed order (the lowest-seed
// error wins, like a sequential loop's early return). Each body call must
// derive all randomness from its seed; reductions over the returned slice
// stay in the caller, which keeps every table independent of scheduling.
func sweep[T any](seeds int, body func(seed int) (T, error)) ([]T, error) {
	return par.Sweep(int(sweepWorkers.Load()), seeds, body)
}
