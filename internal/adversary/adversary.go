// Package adversary provides round-by-round fault detectors driven as
// adversaries: core.Oracle implementations that choose suspect sets D(i,r)
// as hostilely as possible while satisfying a given model predicate from
// the paper's §2–§5. Every adversary is deterministic given its seed, so
// experiments are reproducible.
//
// The correspondence adversary ↔ predicate is validated by this package's
// tests: a trace collected from each adversary must satisfy the predicate it
// advertises (and, for the separation examples, violate the ones the paper
// says it can violate).
package adversary

import (
	"math/rand"

	"repro/internal/core"
)

// Benign returns the fault-free oracle: nobody is ever suspected. This is the
// Awerbuch-synchronizer regime the paper contrasts with (§6): with no faults,
// synchrony and asynchrony coincide.
func Benign(n int) core.Oracle {
	sus := core.NewSets(n, n)
	return core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		return core.RoundPlan{Suspects: sus}
	})
}

// sampler is a seeded adversary's state: its generator, and the plan rows
// and scratch it refills every round, so a round allocates nothing. Its
// plans' rows are borrowed (core.Oracle): the engine copies what it keeps.
type sampler struct {
	rng     *rand.Rand
	sus     []core.Set // D(i,r) for every process: the plan's rows
	pool    core.Set   // a round's or a process's candidates
	members []core.PID // the shuffle buffer of pickK and randSubset
}

// newSampler carves a sampler's rows and scratch over n processes.
func newSampler(n int, seed int64) *sampler {
	return &sampler{rng: newRand(seed), sus: core.NewSets(n, n), pool: core.NewSet(n), members: make([]core.PID, 0, n)}
}

// rows empties the plan rows for a new round and returns them.
func (s *sampler) rows() []core.Set {
	for i := range s.sus {
		s.sus[i].Clear()
	}
	return s.sus
}

// shuffled returns pool's members, taken in increasing order and shuffled,
// in the shuffle buffer: valid until the next call.
func (s *sampler) shuffled(pool core.Set) []core.PID {
	m := s.members[:0]
	pool.ForEach(func(p core.PID) { m = append(m, p) })
	s.rng.Shuffle(len(m), func(i, j int) { m[i], m[j] = m[j], m[i] })
	s.members = m
	return m
}

// randSubset overwrites dst with a subset of pool with at most max
// elements, chosen uniformly at random (each element of pool is considered
// in a random order and kept with probability 1/2 until the cap is hit).
func (s *sampler) randSubset(dst *core.Set, pool core.Set, max int) {
	dst.Clear()
	for _, p := range s.shuffled(pool) {
		if dst.Count() >= max {
			break
		}
		if s.rng.Intn(2) == 1 {
			dst.Add(p)
		}
	}
}

// pickK overwrites dst with k distinct members of pool chosen uniformly at
// random (or all of pool if it has fewer than k members).
func (s *sampler) pickK(dst *core.Set, pool core.Set, k int) {
	m := s.shuffled(pool)
	dst.Clear()
	for _, p := range m[:min(max(k, 0), len(m))] {
		dst.Add(p)
	}
}
