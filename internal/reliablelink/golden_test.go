package reliablelink

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
	"repro/internal/obs"
)

// TestGoldenStalledEventStream pins the full JSONL event stream of one
// stalled execution, recorded before Link became a msgnet.Substrate
// decorator under the shared round loop: the hash covers every
// substrate and link event, so it fixes the name, the fields and the
// stream position of "rlink.watchdog" along with the step counts.
func TestGoldenStalledEventStream(t *testing.T) {
	plan := faultnet.Plan{Seed: 1, Components: []faultnet.Component{{
		Kind:   faultnet.Partition,
		Groups: [][]core.PID{{0, 2}, {1}},
		Name:   "island-p1",
	}}}
	var buf bytes.Buffer
	log := obs.NewEventLog(&buf)
	_, rep, err := RunRounds(3, 1, 2, RoundsConfig{
		Net:           msgnet.Config{Chooser: msgnet.Seeded(11), Faults: plan.Injector(), Observer: log},
		Link:          Config{RetransmitAfter: 4, RetransmitCap: 8, MaxAttempts: 2, Observer: log},
		WatchdogSteps: 600,
		LingerSteps:   200,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stalled() {
		t.Fatal("the islanded run must stall")
	}
	got := fmt.Sprintf("steps=%d lines=%d watchdogs=%d stream=%x", rep.Steps, log.Lines(),
		strings.Count(buf.String(), `"kind":"rlink.watchdog"`), sha256.Sum256(buf.Bytes()))
	const want = "steps=1415 lines=176 watchdogs=2 stream=69fbb7d8ccc04b9e9b06cc1593a0131b98c834fbe5cb0ec157c5f66f8d342fc4"
	if got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// TestGoldenFaultyRestartEventStream pins the JSONL event stream of a run
// under drop + duplicate + delay with one crash-and-restart, recorded
// before the scheduler step and the Link's bookkeeping went map-free: any
// change to the order of chooser calls, OnSend calls, delayed releases or
// retransmissions moves the hash.
func TestGoldenFaultyRestartEventStream(t *testing.T) {
	plan := faultnet.Plan{Seed: 5, Components: []faultnet.Component{
		{Kind: faultnet.Drop, Rate: 0.3},
		{Kind: faultnet.Duplicate, Rate: 0.3, Copies: 2},
		{Kind: faultnet.Delay, Rate: 0.4, MaxDelay: 12},
	}}
	var buf bytes.Buffer
	log := obs.NewEventLog(&buf)
	_, rep, err := RunRounds(4, 1, 3, RoundsConfig{
		Net: msgnet.Config{
			Chooser:  msgnet.Seeded(9),
			Crash:    map[core.PID]int{3: 7},
			Restart:  map[core.PID]int{3: 20},
			Faults:   plan.Injector(),
			Observer: log,
		},
		Link:          Config{RetransmitAfter: 4, RetransmitCap: 16, MaxAttempts: 3, Observer: log},
		WatchdogSteps: 300,
		LingerSteps:   100,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	kinds := ""
	for _, k := range []string{"msgnet.restart", "faultnet.drop", "faultnet.dup", "faultnet.delay", "rlink.retransmit", "rlink.giveup", "rlink.dup_rx"} {
		kinds += fmt.Sprintf(" %s=%d", k, strings.Count(buf.String(), `"kind":"`+k+`"`))
	}
	got := fmt.Sprintf("steps=%d lines=%d%s stream=%x", rep.Steps, log.Lines(), kinds, sha256.Sum256(buf.Bytes()))
	const want = "steps=657 lines=1169 msgnet.restart=1 faultnet.drop=71 faultnet.dup=57 faultnet.delay=120 rlink.retransmit=110 rlink.giveup=34 rlink.dup_rx=118 stream=eab8c3ca290b9abcf8f27eeb7ec25b815c0af8e148401f2b6cb837efbd8dae17"
	if got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}
