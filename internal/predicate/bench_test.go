package predicate

import "testing"

var sinkChecked int

// BenchmarkExhaustiveImplies times one exhaustive proof of a lattice edge,
// SyncCrash(2) ⇒ SendOmission(2) over all 117 649 traces at n=3, r=2: the
// trace walk, a premise that mostly fails (its violation is discarded) and
// the consequent on the 2 000-odd traces that pass it — E15's inner loop.
func BenchmarkExhaustiveImplies(b *testing.B) {
	premise, consequent := SyncCrash(2), SendOmission(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		checked, _, err := ExhaustiveImplies(3, 2, premise, consequent)
		if err != nil || checked != 117649 {
			b.Fatalf("checked %d traces, err %v", checked, err)
		}
		sinkChecked = checked
	}
}
