package snapshot

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/swmr"
)

// BenchmarkUpdateScan measures the wait-free snapshot's cost as n grows
// (each Update embeds a Scan; each Scan is ≥ 2 collects of n reads).
func BenchmarkUpdateScan(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := swmr.Run(n, swmr.Config{Chooser: swmr.Seeded(int64(i))},
					func(p *swmr.Proc) (core.Value, error) {
						obj := New(p, "o")
						if err := obj.Update(int(p.Me)); err != nil {
							return nil, err
						}
						_, err := obj.Scan()
						return nil, err
					})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(out.Steps)/float64(n), "memops/proc")
			}
		})
	}
}

// BenchmarkSnapshotRounds measures one iterated-snapshot round (§2 item 5).
func BenchmarkSnapshotRounds(b *testing.B) {
	n, f, rounds := 5, 2, 3
	steps := 0
	runs := 0
	for i := 0; i < b.N; i++ {
		out, err := RunRounds(n, f, rounds, swmr.Config{Chooser: swmr.Seeded(int64(i))}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if out.Trace.Len() != rounds {
			b.Fatal("short trace")
		}
		runs++
		steps += rounds
	}
	_ = steps
	_ = runs
}
