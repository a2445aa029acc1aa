package baton

import "testing"

// TestWakesCountsHandOvers: a step that picks the posting body's own
// operation is not a hand-over, nor is starting a spawned body. A lone
// process is never woken, and five processes at most once per operation
// applied.
func TestWakesCountsHandOvers(t *testing.T) {
	for round := 0; round < 50; round++ {
		if s, _, panicked := run(1, 20, 0); panicked != nil || s.b.Wakes() != 0 {
			t.Fatalf("one process, %d steps: %d wakes (panic: %v), want none", s.steps, s.b.Wakes(), panicked)
		}
		if s, _, panicked := run(5, 20, 0); panicked != nil || s.b.Wakes() == 0 || s.b.Wakes() > s.steps {
			t.Fatalf("five processes, %d steps: %d wakes (panic: %v)", s.steps, s.b.Wakes(), panicked)
		}
	}
}
