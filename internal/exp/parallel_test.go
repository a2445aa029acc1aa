package exp

import (
	"bytes"
	"testing"
)

// TestSweepWorkersByteIdentical renders a spread of experiments — seeded
// sweeps (E06, E10, E12), the sweeps that build seeded samplers (E01, E02,
// E04, E07, E15: an oracle's reused plan rows shared between workers would
// show here, and as a race under -race), summed-accumulator sweeps (X03),
// the fanned-out exhaustive searches (E11, X04), the catalog's explored
// schedules (X05: each exploration task keeps one engine Runner across its
// schedules) — at workers=1 and workers=8 and requires byte-identical
// tables: the determinism contract SetWorkers promises.
func TestSweepWorkersByteIdentical(t *testing.T) {
	targets := map[string]bool{
		"E01": true, "E02": true, "E04": true, "E06": true, "E07": true,
		"E10": true, "E11": true, "E12": true, "E15": true,
		"X03": true, "X04": true, "X05": true,
	}
	render := func(workers int) string {
		SetWorkers(workers)
		defer SetWorkers(1)
		var b bytes.Buffer
		for _, r := range All() {
			if !targets[r.ID] {
				continue
			}
			table, err := r.Run(true)
			if err != nil {
				t.Fatalf("%s at workers=%d: %v", r.ID, workers, err)
			}
			table.Fprint(&b)
		}
		return b.String()
	}
	want := render(1)
	got := render(8)
	if got != want {
		t.Fatalf("workers=8 tables differ from workers=1:\n--- workers=8 ---\n%s\n--- workers=1 ---\n%s", got, want)
	}
}

// TestSetWorkersClamp checks negative values mean "one per CPU" (0), not a
// stuck-forever panic inside par.
func TestSetWorkersClamp(t *testing.T) {
	SetWorkers(-5)
	defer SetWorkers(1)
	if sweepWorkers.Load() != 0 {
		t.Fatalf("SetWorkers(-5) stored %d, want 0", sweepWorkers.Load())
	}
	rs, err := sweep(3, func(seed int) (int, error) { return seed * seed, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range rs {
		if v != i*i {
			t.Fatalf("rs[%d] = %d, want %d", i, v, i*i)
		}
	}
}
