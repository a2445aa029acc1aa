package baton

// Wakes is the number of hand-overs that resumed a parked process: a step
// that picks the posting body's own operation, or that a Handler follows up
// on, costs none.
func (b *Baton) Wakes() int { return b.wakes }
