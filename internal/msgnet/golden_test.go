package msgnet

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestGoldenRunRounds pins one seeded execution of the unreliable round
// protocol — step count and induced trace — recorded before RunRounds
// became a caller of RunSubstrateRounds. A plain-Recv round must cost
// exactly the steps it always did.
func TestGoldenRunRounds(t *testing.T) {
	out, err := RunRounds(5, 2, 4, Config{
		Chooser: Seeded(7),
		Crash:   map[core.PID]int{4: 9},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("steps=%d trace=%x", out.Steps, sha256.Sum256([]byte(out.Trace.String())))
	const want = "steps=154 trace=0cf037718fa6cd582d5d131d2ced88e8b7b9620277f8c894c0bafd8478ca696d"
	if got != want {
		t.Fatalf("got  %s\nwant %s\n%s", got, want, out.Trace)
	}
}
