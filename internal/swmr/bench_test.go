package swmr

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
)

// BenchmarkRegisterOps measures scheduler-mediated register throughput.
func BenchmarkRegisterOps(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const opsPerProc = 50
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := Run(n, Config{Chooser: Seeded(int64(i))}, func(p *Proc) (core.Value, error) {
					for k := 0; k < opsPerProc; k++ {
						if err := p.Write("r", k); err != nil {
							return nil, err
						}
					}
					return nil, nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if out.Steps != n*opsPerProc {
					b.Fatalf("steps = %d", out.Steps)
				}
			}
			b.ReportMetric(float64(n*opsPerProc), "memops/run")
		})
	}
}

// BenchmarkCollect measures the n-read collect primitive.
func BenchmarkCollect(b *testing.B) {
	n := 8
	for i := 0; i < b.N; i++ {
		_, err := Run(n, Config{Chooser: Seeded(int64(i))}, func(p *Proc) (core.Value, error) {
			if err := p.Write("v", int(p.Me)); err != nil {
				return nil, err
			}
			_, err := p.Collect("v")
			return nil, err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplore measures model-checking throughput (schedules/second).
func BenchmarkExplore(b *testing.B) {
	schedules := 0
	for i := 0; i < b.N; i++ {
		res, err := mc.Explore(mc.Options{MaxSchedules: 10000, Workers: 1}, func(ctx *mc.Ctx) error {
			ch := func(_ int, runnable []core.PID) int { return ctx.Choose(len(runnable)) }
			_, err := Run(2, Config{Chooser: ch}, func(p *Proc) (core.Value, error) {
				if err := p.Write("a", 1); err != nil {
					return nil, err
				}
				return nil, p.Write("b", 2)
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		schedules += res.Schedules
	}
	b.ReportMetric(float64(schedules)/float64(b.N), "schedules/op")
}
