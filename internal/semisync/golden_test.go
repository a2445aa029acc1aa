package semisync

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestGoldenRunTwoStep pins two seeded two-step executions — decisions
// and induced eq. (5) trace, fault-free and with a scheduler crash —
// recorded before the trace assembly moved to core.AssembleRounds. The
// crash row pins the marking: every process that misses a round is
// Crashed in the trace.
func TestGoldenRunTwoStep(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"fault-free", Config{Chooser: core.Seeded(7)},
			"decisions=map[0:2 1:2 2:2 3:2 4:2] crashed={} trace=54ddb6024a5c1e75807fee843fe353a254325638c8bbd98250b3a8897f2beba4"},
		{"crash", Config{Chooser: core.Seeded(7), crash: map[core.PID]int{1: 3}},
			"decisions=map[0:2 1:2 2:2 3:2 4:2] crashed={1} trace=3a54cd9d6250c598b620082f01b53494dc7045f85da407709ea6d65ec042e250"},
	} {
		out, err := RunTwoStep(5, 3, tc.cfg, identityInputs(5))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("decisions=%v crashed=%s trace=%x", out.Outcome.Values, out.Outcome.Crashed,
			sha256.Sum256([]byte(out.Trace.String())))
		if got != tc.want {
			t.Errorf("%s:\ngot  %s\nwant %s\n%s", tc.name, got, tc.want, out.Trace)
		}
	}
}
