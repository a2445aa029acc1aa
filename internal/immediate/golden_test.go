package immediate

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/swmr"
)

// TestGoldenRunRounds pins two seeded iterated-immediate-snapshot
// executions — induced trace and views, fault-free and with a scheduler
// crash — recorded before RunRounds became a caller of core.RunRounds.
// The crash row pins the marking: every process that misses a round is
// Crashed in the trace from that round on.
func TestGoldenRunRounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  swmr.Config
		want string
	}{
		{"fault-free", swmr.Config{Chooser: swmr.Seeded(7)},
			"crashed={} trace=d6fa3d19c3a26993b8e5b16d883c057ea5075c9484d1f74f9950e748a1dd3e52"},
		{"crash", swmr.Config{Chooser: swmr.Seeded(7), Crash: map[core.PID]int{2: 30}},
			"crashed={2} trace=59ae5d9fb8c1d73aa84c63aa00d6d08dad96a15e2f735f6dc0687557d69aa39d"},
	} {
		out, err := RunRounds(4, 3, tc.cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("crashed=%s trace=%x", out.Crashed,
			sha256.Sum256([]byte(out.Trace.String()+fmt.Sprint(out.Views))))
		if got != tc.want {
			t.Errorf("%s:\ngot  %s\nwant %s\n%s", tc.name, got, tc.want, out.Trace)
		}
	}
}
