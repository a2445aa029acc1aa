package msgnet

import "testing"

// TestRunRoundsAllocsPerStep pins the scheduler step as allocation-free in
// steady state: what a run still allocates is per process (node, body
// closure) and per round (the boxed round message, views, D sets); the link
// queues and the per-pid state keep their working size from one run to the
// next — 1.10 allocations a step here, 1.15 with a goroutine and a channel
// per process, 1.40 while each run grew its own queues, 15.85 for the
// map-and-sort step. The ceiling is 1.15 plus a quarter; a request
// allocated per operation, a slice per pending receiver per step, or queues
// regrown per run break it.
func TestRunRoundsAllocsPerStep(t *testing.T) {
	steps := 0
	allocs := testing.AllocsPerRun(20, func() {
		out, err := RunRounds(6, 2, 4, Config{Chooser: Seeded(1)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		steps = out.Steps
	})
	const ceiling = 1.44
	if perStep := allocs / float64(steps); perStep > ceiling {
		t.Fatalf("%.0f allocs over %d steps = %.2f a step, ceiling %.2f", allocs, steps, perStep, ceiling)
	} else {
		t.Logf("%.0f allocs over %d steps = %.2f a step", allocs, steps, perStep)
	}
}
