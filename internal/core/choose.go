package core

// Chooser is the scheduling adversary of the virtual substrates: given the
// global step and a sorted option list (who may step, or which senders a
// receive may take a message from), it returns an index into the list. The
// list is the scheduler's scratch, valid only during the call.
//
// Calls are serialized and ordered by happens-before but arrive on
// whichever process goroutine holds the scheduler: a Chooser may keep
// unsynchronized state (Seeded, RoundRobin and mc.Ctx.Pick do) but may not
// depend on goroutine identity (t.FailNow, runtime.LockOSThread). The same
// holds for msgnet's FaultInjector and Observer.
type Chooser func(step int, options []PID) int

// Seeded returns the deterministic pseudo-random chooser over NewRand(seed).
func Seeded(seed int64) Chooser {
	r := NewRand(seed)
	return r.Choose
}

// RoundRobin returns the fair cyclic chooser.
func RoundRobin() Chooser {
	next := 0
	return func(step int, options []PID) int {
		next++
		return next % len(options)
	}
}

// PriorityGroups returns a chooser that always schedules within the
// earliest listed group that has a runnable process, rotating round-robin
// inside the group; runnable processes in no group run last. This expresses
// "run these to completion before those" adversaries — e.g. the schedule
// that witnesses the Corollary 4.4 lower bound.
func PriorityGroups(groups ...[]PID) Chooser {
	counter := 0
	return func(step int, runnable []PID) int {
		for _, g := range groups {
			var idxs []int
			for i, p := range runnable {
				for _, q := range g {
					if p == q {
						idxs = append(idxs, i)
						break
					}
				}
			}
			if len(idxs) > 0 {
				counter++
				return idxs[counter%len(idxs)]
			}
		}
		return 0
	}
}

// Rand is the one seeded stream of the virtual substrates and their fault
// plans: xorshift64*, allocation-free, so a seed replays bit-for-bit on any
// platform. The zero Rand yields zeros forever.
type Rand struct{ s uint64 }

// NewRand returns the stream at state seed·0x9E3779B97F4A7C15+1: Seeded's,
// faultnet's and the chaos and hoalg plans' seeding.
func NewRand(seed int64) Rand { return Rand{uint64(seed)*0x9E3779B97F4A7C15 + 1} }

// RandState returns the stream at state s, for a caller whose outputs pin
// another seeding (swmr.Seeded, backoff's jitter).
func RandState(s uint64) Rand { return Rand{s} }

// Next advances the stream and returns its next word.
func (r *Rand) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 2685821657736338717
}

// Float returns a uniform draw in [0, 1) from the word's top 53 bits.
func (r *Rand) Float() float64 { return float64(r.Next()>>11) / (1 << 53) }

// Intn returns a uniform draw in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Perm returns the pids 0..n-1 in an order drawn by Fisher–Yates.
func (r *Rand) Perm(n int) []PID {
	pids := make([]PID, n)
	for i := range pids {
		pids[i] = PID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		pids[i], pids[j] = pids[j], pids[i]
	}
	return pids
}

// Choose is a Chooser over r, drawing from the word's top 31 bits.
func (r *Rand) Choose(_ int, options []PID) int {
	return int((r.Next() >> 33) % uint64(len(options)))
}
