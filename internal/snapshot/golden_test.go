package snapshot

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/swmr"
)

// TestGoldenRunRounds pins two seeded executions of the snapshot round
// protocol — induced trace and views, fault-free and with a scheduler
// crash — recorded before RunRounds became a caller of core.RunRounds.
// The crash row pins the marking: only a scheduler-crashed process is
// Crashed in the trace.
func TestGoldenRunRounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  swmr.Config
		want string
	}{
		{"fault-free", swmr.Config{Chooser: swmr.Seeded(7)},
			"crashed={} trace=35259411f6080afec4c5e9cd5a2e0a920693115806a1d9d6cf828e2a04036412"},
		{"crash", swmr.Config{Chooser: swmr.Seeded(7), Crash: map[core.PID]int{3: 40}},
			"crashed={3} trace=581b160d598d36f743f69d089d7f3add5877adabe962b3a376ea19de9e83a514"},
	} {
		out, err := RunRounds(5, 2, 4, tc.cfg, nil)
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
