package baton

import "testing"

// TestWakesCountsHandOvers: a step that picks its holder's own operation is
// not a hand-over. A lone process is woken at most once a generation — when
// the creator, or the step that spawned it, happened to arrive last — and
// five processes at most once per operation applied.
func TestWakesCountsHandOvers(t *testing.T) {
	for round := 0; round < 50; round++ {
		if s, _, panicked := run(1, 20, 0); panicked != nil || s.b.Wakes() > 2 {
			t.Fatalf("one process, %d steps: %d wakes (panic: %v), want at most one per generation", s.steps, s.b.Wakes(), panicked)
		}
		if s, _, panicked := run(5, 20, 0); panicked != nil || s.b.Wakes() == 0 || s.b.Wakes() > s.steps {
			t.Fatalf("five processes, %d steps: %d wakes (panic: %v)", s.steps, s.b.Wakes(), panicked)
		}
	}
}
