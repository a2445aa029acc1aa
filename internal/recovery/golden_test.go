package recovery

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
)

// TestGoldenRunRounds pins one seeded crash-and-recover execution — step
// count, decisions and induced trace — recorded before the gather step
// and the trace assembly were shared with msgnet. The lossy plan makes
// rounds time out, so the skip-ahead path is part of what is pinned.
func TestGoldenRunRounds(t *testing.T) {
	plan := faultnet.Plan{Seed: 5, Components: []faultnet.Component{
		{Kind: faultnet.Drop, Rate: 0.25},
		{Kind: faultnet.Delay, Rate: 0.3, MaxDelay: 12},
	}}
	out, err := RunRounds(5, 1, 6, Config{
		Net: msgnet.Config{
			Chooser: msgnet.Seeded(9),
			Crash:   map[core.PID]int{1: 14, 3: 25},
			Restart: map[core.PID]int{1: 60},
			Faults:  plan.Injector(),
		},
		FlushEvery:    3,
		WatchdogSteps: 256,
		Proposals:     []int{40, 10, 30, 20, 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("steps=%d decisions=%v rejoined=%s trace=%x",
		out.Steps, out.Decisions, out.Rejoined, sha256.Sum256([]byte(out.Trace.String())))
	const want = "steps=1102 decisions=map[0:10 1:10 4:10] rejoined={1} trace=fd3e32d498f9574df059e09e999daf7f0ad37be260b371ae50df59f38d9fe1cd"
	if got != want {
		t.Fatalf("got  %s\nwant %s\n%s", got, want, out.Trace)
	}
}
