package adversary_test

import (
	"testing"

	"repro/internal/hoalg"
	"repro/internal/mc"
)

// BenchmarkExploreEnumerated times one exhaustive exploration the way X05
// runs it (sweepRun): bsys(1,2) at n=3 under FloodMin(2) with the compiled
// checker as a trace property — 63 plans a round, 3969 schedules, every one
// replayed from round 1 against one compiled enumerator.
func BenchmarkExploreEnumerated(b *testing.B) {
	const want = 3969
	expr := hoalg.BSys(1, 2)
	enum, err := expr.CompileEnum(3)
	if err != nil {
		b.Fatal(err)
	}
	run := sweepRun(expr, enum)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := mc.Explore(mc.Options{Workers: 1}, run)
		if err != nil || !res.Exhausted || res.Schedules != want {
			b.Fatalf("schedules %d (want %d), exhausted %v, err %v", res.Schedules, want, res.Exhausted, err)
		}
	}
	b.ReportMetric(want, "schedules/op")
}
