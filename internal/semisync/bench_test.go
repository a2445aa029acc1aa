package semisync

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// BenchmarkTwoStep measures the 2-step consensus across system sizes — the
// cost stays 2 steps per process regardless of n; the wall-clock grows only
// with the O(n) broadcast fan-out per step.
func BenchmarkTwoStep(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inputs := identityInputs(n)
			for i := 0; i < b.N; i++ {
				out, err := RunTwoStep(n, 1, Config{Chooser: core.Seeded(int64(i))}, inputs)
				if err != nil {
					b.Fatal(err)
				}
				if got := out.Outcome.MaxDecisionSteps(); got != 2 {
					b.Fatalf("steps = %d", got)
				}
			}
			b.ReportMetric(2, "steps/decision")
		})
	}
}

// BenchmarkRelay measures the 2n-step baseline — the per-process step count
// grows linearly, the paper's comparison shape.
func BenchmarkRelay(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inputs := identityInputs(n)
			steps := 0
			for i := 0; i < b.N; i++ {
				out, err := Run(n, Config{Chooser: core.RoundRobin()}, RelayFactory(), inputs)
				if err != nil {
					b.Fatal(err)
				}
				steps += out.MaxDecisionSteps()
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/decision")
		})
	}
}
