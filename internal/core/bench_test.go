package core

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// BenchmarkSetOps runs the union/intersect/diff triple through the
// in-place variants (CopyFrom + UnionInto/IntersectInto/DiffInto) over
// pre-allocated scratch — the exact shape of the engine loops — and must
// stay at 0 allocs/op (pinned in BENCH_core.json).
func BenchmarkSetOps(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := FullSet(n)
			y := SetOf(n, 0, PID(n/2), PID(n-1))
			u, v, w := NewSet(n), NewSet(n), NewSet(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u.CopyFrom(x)
				u.UnionInto(y)
				v.CopyFrom(x)
				v.IntersectInto(y)
				w.CopyFrom(u)
				w.DiffInto(v)
				if w.Count() < 0 {
					b.Fatal("impossible")
				}
			}
		})
	}
}

// BenchmarkSetBankSweep prices one fleet-shaped pass over a packed set
// bank: clear a row, add members, pop a count — per row, allocation-free.
func BenchmarkSetBankSweep(b *testing.B) {
	const n, rows = 16, 1024
	bank := NewSetBank(n, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % rows
		bank.Clear(r)
		bank.Add(r, 0)
		bank.Add(r, PID(n/2))
		bank.Add(r, PID(n-1))
		if bank.Row(r).Count() != 3 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkSetForEach(b *testing.B) {
	s := FullSet(256)
	count := 0
	for i := 0; i < b.N; i++ {
		s.ForEach(func(p PID) { count++ })
	}
	_ = count
}

// BenchmarkEngineRounds measures raw round throughput of the lock-step
// engine with a trivial algorithm and a benign oracle.
func BenchmarkEngineRounds(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inputs := make([]Value, n)
			oracle := OracleFunc(func(r int, active Set) RoundPlan {
				sus := make([]Set, n)
				for i := range sus {
					sus[i] = NewSet(n)
				}
				return RoundPlan{Suspects: sus}
			})
			const rounds = 10
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := Run(n, inputs, newEchoFactory(rounds), oracle, WithoutTrace())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rounds), "rounds/run")
		})
	}
}

// BenchmarkEngineRoundsObserved is BenchmarkEngineRounds with a Metrics
// observer attached — the price of full metrics collection, to compare
// against the observer-free rows (which must stay at seed speed).
func BenchmarkEngineRoundsObserved(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inputs := make([]Value, n)
			oracle := OracleFunc(func(r int, active Set) RoundPlan {
				sus := make([]Set, n)
				for i := range sus {
					sus[i] = NewSet(n)
				}
				return RoundPlan{Suspects: sus}
			})
			m := obs.NewMetrics()
			const rounds = 10
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := Run(n, inputs, newEchoFactory(rounds), oracle, WithoutTrace(), WithObserver(m))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rounds), "rounds/run")
		})
	}
}

// BenchmarkObservedRun prices the observer kinds on one fixed workload
// (n=16, 10 rounds of the echo algorithm under a benign oracle): no
// observer at all (must stay at BenchmarkEngineRounds speed — the hooks
// are behind one nil check), the Metrics aggregator (atomic counters plus
// sharded histograms), and the causal Tracer (span + flow assembly, a
// fresh tracer per run as the CLIs use it).
func BenchmarkObservedRun(b *testing.B) {
	const n, rounds = 16, 10
	inputs := make([]Value, n)
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		for i := range sus {
			sus[i] = NewSet(n)
		}
		return RoundPlan{Suspects: sus}
	})
	runOnce := func(b *testing.B, extra ...Option) {
		opts := append([]Option{WithoutTrace()}, extra...)
		if _, err := Run(n, inputs, newEchoFactory(rounds), oracle, opts...); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("observer=off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b)
		}
	})
	b.Run("observer=metrics", func(b *testing.B) {
		m := obs.NewMetrics()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOnce(b, WithObserver(m))
		}
	})
	b.Run("observer=tracer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b, WithObserver(trace.New()))
		}
	})
}

// BenchmarkRun / BenchmarkCheckpointedRun measure the cost of journaling an
// execution: the same run bare, with round records only, and with a snapshot
// every round. The delta is the checkpointing overhead tracked in
// BENCH_core.json.
func BenchmarkRun(b *testing.B) {
	const n, rounds = 8, 10
	inputs := benchInputs(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(n, inputs, ckFactory(rounds), ckOracle(n), WithoutTrace()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rounds), "rounds/run")
}

func BenchmarkCheckpointedRun(b *testing.B) {
	const n, rounds = 8, 10
	inputs := benchInputs(n)
	b.Run("rounds-only", func(b *testing.B) {
		root := b.TempDir()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dir := fmt.Sprintf("%s/ck-%d", root, i)
			if _, err := Run(n, inputs, ckFactory(rounds), ckOracle(n), WithoutTrace(),
				WithCheckpointing(dir, CheckpointOptions{})); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rounds), "rounds/run")
	})
}

func benchInputs(n int) []Value {
	in := make([]Value, n)
	for i := range in {
		in[i] = n - i
	}
	return in
}

func BenchmarkCollectTraceWithRecording(b *testing.B) {
	n := 16
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		for i := range sus {
			sus[i] = SetOf(n, PID((r+i)%n))
		}
		return RoundPlan{Suspects: sus}
	})
	for i := 0; i < b.N; i++ {
		if _, err := CollectTrace(n, 10, oracle); err != nil {
			b.Fatal(err)
		}
	}
}
