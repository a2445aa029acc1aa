package exp

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hoalg"
)

// TestAllExperimentsPass runs every experiment in quick mode and requires
// every verdict cell to be "ok" — this is the repository's end-to-end claim
// that all paper results reproduce.
func TestAllExperimentsPass(t *testing.T) {
	for _, r := range All() {
		r := r
		t.Run(r.ID, func(t *testing.T) {
			table, err := r.Run(true)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if table.ID != r.ID {
				t.Fatalf("table ID %q, runner ID %q", table.ID, r.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced no rows", r.ID)
			}
			for _, row := range table.Rows {
				for _, cell := range row {
					if cell == "VIOLATED" {
						t.Fatalf("%s has a violated verdict:\n%v", r.ID, table.Rows)
					}
				}
			}
		})
	}
}

func TestTableFprint(t *testing.T) {
	tb := &Table{
		ID:      "EXX",
		Title:   "demo",
		Ref:     "§0",
		Columns: []string{"a", "bb"},
	}
	tb.AddRow(1, "x")
	tb.AddNote("n=%d", 7)
	var b strings.Builder
	tb.Fprint(&b)
	out := b.String()
	for _, want := range []string{"EXX", "demo", "a", "bb", "1", "x", "note: n=7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRoundsToKnownByAll(t *testing.T) {
	// Benign execution: everyone known to all at round 1.
	tr, err := core.CollectTrace(4, 3, adversary.Benign(4))
	if err != nil {
		t.Fatal(err)
	}
	r, err := RoundsToKnownByAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("benign rounds-to-known = %d, want 1", r)
	}
	// A trace that is all miss-cycles for its whole (short) length can
	// fail to converge — the error path.
	short := core.NewTrace(3)
	rec := core.RoundRecord{
		R:        1,
		Suspects: []core.Set{core.SetOf(3, 1), core.SetOf(3, 2), core.SetOf(3, 0)},
		Deliver:  []core.Set{core.SetOf(3, 0, 2), core.SetOf(3, 1, 0), core.SetOf(3, 2, 1)},
		Active:   core.FullSet(3),
		Crashed:  core.NewSet(3),
	}
	short.Append(rec)
	if _, err := RoundsToKnownByAll(short); err == nil {
		t.Fatal("pure cycle round must not converge in one round")
	}
}

func TestVerdictAndSeeds(t *testing.T) {
	if verdict(true) != "ok" || verdict(false) != "VIOLATED" {
		t.Fatal("verdict broken")
	}
	if seedsFor(true, 100) != 8 || seedsFor(false, 100) != 100 || seedsFor(true, 5) != 5 {
		t.Fatal("seedsFor broken")
	}
}

// TestExploreModelReturnsAnEmptyFamily: an expression that admits no plan
// fails X05's exploration with an error naming the branch, not a panic.
func TestExploreModelReturnsAnEmptyFamily(t *testing.T) {
	e := hoalg.And(hoalg.Identical(), hoalg.Not(hoalg.Identical()))
	schedules, err := exploreModel(e, 3, 1)
	var empty *hoalg.EmptyFamilyError
	if !errors.As(err, &empty) || empty.Round != 1 || schedules != 0 {
		t.Fatalf("exploreModel = (%d, %v), want an empty plan family in round 1", schedules, err)
	}
	if !strings.Contains(err.Error(), e.String()) {
		t.Fatalf("error does not name the branch %q: %v", e, err)
	}
}
