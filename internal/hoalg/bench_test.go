package hoalg_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/predicate"
)

var (
	sinkErr   error
	sinkPlans []core.RoundPlan
)

// BenchmarkCheck times one Check of the bench ladder's trace (n=16, f=5,
// 8 eq. (3) rounds, seed 1) under a legacy name and under the expression
// that names the same clauses. The trace satisfies eq. (3) and kset(16), so
// those walk all eight rounds; sync-crash and atomic-snapshot reject it and
// include building the violation.
func BenchmarkCheck(b *testing.B) {
	const n, f, rounds = 16, 5, 8
	tr, err := core.CollectTrace(n, rounds, adversary.AsyncBudget(n, f, false, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		p    predicate.P
	}{
		{"named/eq3", predicate.PerRoundBudget(f)},
		{"named/sync-crash", predicate.SyncCrash(f)},
		{"named/atomic-snapshot", predicate.AtomicSnapshot(f)},
		{"named/kset", predicate.KSetDetector(n)},
		{"compiled/eq3", hoalg.PerRound(f).Compile()},
		{"compiled/sync-crash", hoalg.SyncCrash(f).Compile()},
		{"compiled/atomic-snapshot", hoalg.AtomicSnapshot(f).Compile()},
		{"compiled/kset", hoalg.KSetEq3(n).Compile()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkErr = c.p.Check(tr)
			}
		})
	}
}

// BenchmarkEnumRound times what one round of one explored schedule pays a
// compiled plan family at n=3 for a state it has expanded before — the
// initial one, under the filtered product (perround) and the crash generator
// (sync-crash): encode the state, look the list up, return it.
func BenchmarkEnumRound(b *testing.B) {
	const n = 3
	st := hoalg.EnumState{R: 1, Active: core.FullSet(n),
		Suspected: core.NewSet(n), PrevUnion: core.NewSet(n)}
	for _, c := range []struct {
		name string
		e    *hoalg.Expr
	}{
		{"perround", hoalg.PerRound(1)},
		{"sync-crash", hoalg.SyncCrash(1)},
	} {
		enum, err := c.e.CompileEnum(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkPlans = enum(st)
			}
		})
	}
}
