package predicate

import (
	"testing"

	"repro/internal/core"
)

var sinkChecked int

// BenchmarkExhaustiveImplies times one exhaustive proof of a lattice edge,
// sync-crash(2) ⇒ send-omission(2) over all 117 649 traces at n=3, r=2: the
// trace walk, a premise that mostly fails (its violation is discarded) and
// the consequent on the 2 000-odd traces that pass it — E15's inner loop.
func BenchmarkExhaustiveImplies(b *testing.B) {
	premise, consequent := syncCrash(2), sendOmission(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		checked, _, err := ExhaustiveImplies(3, 2, premise, consequent)
		if err != nil || checked != 117649 {
			b.Fatalf("checked %d traces, err %v", checked, err)
		}
		sinkChecked = checked
	}
}

// BenchmarkExhaustiveKSetProof times E07's largest proof row's filter: every
// one of the 15^4 one-round traces at n=4 against kset(2), which
// most of them violate — the failure path, asked only through Holds.
func BenchmarkExhaustiveKSetProof(b *testing.B) {
	kset := atom(AtomKSet, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		satisfying := 0
		err := ExhaustiveTraces(4, 1, func(tr *core.Trace) error {
			if kset.Holds(tr) {
				satisfying++
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		sinkChecked = satisfying
	}
}
