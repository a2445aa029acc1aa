package faultnet

import "testing"

// TestOnSendDoesNotAllocate: the injector answers from its own scratch, so
// a plan that drops, duplicates and delays allocates nothing per send.
func TestOnSendDoesNotAllocate(t *testing.T) {
	inj := Plan{Seed: 3, Components: []Component{
		{Kind: Drop, Rate: 0.3},
		{Kind: Duplicate, Rate: 0.5, Copies: 3},
		{Kind: Delay, Rate: 0.5, MaxDelay: 9},
	}}.Injector()
	step, copies := 0, 0
	inj.OnSend(step, 0, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		step++
		copies += len(inj.OnSend(step, 0, 1).Deliveries)
	})
	if allocs != 0 {
		t.Fatalf("OnSend allocates %.1f times per call", allocs)
	}
	if copies < 1000 {
		t.Fatalf("%d copies over 1000 sends: the duplicate component never fired", copies)
	}
}
