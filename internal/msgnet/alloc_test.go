package msgnet

import "testing"

// TestRunRoundsAllocsPerStep pins the scheduler step as allocation-free in
// steady state: what a run still allocates is per process (node, goroutine,
// reply channel), per round (the boxed round message, views, D sets) and
// the link queues growing to their working size — 1.40 allocations a step
// here, where the map-and-sort step paid 15.85. The ceiling is that figure
// plus a quarter; a request allocated per operation, or a slice per pending
// receiver per step, breaks it.
func TestRunRoundsAllocsPerStep(t *testing.T) {
	steps := 0
	allocs := testing.AllocsPerRun(20, func() {
		out, err := RunRounds(6, 2, 4, Config{Chooser: Seeded(1)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		steps = out.Steps
	})
	const ceiling = 1.75
	if perStep := allocs / float64(steps); perStep > ceiling {
		t.Fatalf("%.0f allocs over %d steps = %.2f a step, ceiling %.2f", allocs, steps, perStep, ceiling)
	} else {
		t.Logf("%.0f allocs over %d steps = %.2f a step", allocs, steps, perStep)
	}
}
