package baton

// Wakes is the number of hand-overs that woke a parked process: a step that
// picks its own holder, or that a Handler follows up on, costs none.
func (b *Baton) Wakes() int { return b.wakes }
