package reliablelink

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
)

// TestGiveUpDegradesIntoSuspicion exercises the interaction the give-up
// path (rlink.giveup) had no coverage for: when maxAttempts exhausts the
// retransmission budget toward an unreachable peer, the abandoned frames
// must surface as a round-watchdog suspicion — a D(i,r) entry in the
// trace — and the execution must terminate cleanly, not stall or
// deadlock.
func TestGiveUpDegradesIntoSuspicion(t *testing.T) {
	const n, f, rounds = 3, 1, 2
	// p1 is islanded for the whole run: every frame crossing the cut is
	// dropped, so retransmissions toward (and from) p1 are pure loss.
	plan := faultnet.Plan{Seed: 1, Components: []faultnet.Component{{
		Kind:   faultnet.Partition,
		Groups: [][]core.PID{{0, 2}, {1}},
		Name:   "island-p1",
	}}}
	out, rep, err := RunRounds(n, f, rounds, RoundsConfig{
		Net: msgnet.Config{Chooser: core.Seeded(11), Faults: plan.Injector()},
		// A tight budget so frames are given up well before the watchdog.
		Link:          Config{retransmitAfter: 4, retransmitCap: 8, maxAttempts: 2},
		WatchdogSteps: 600,
		LingerSteps:   200,
	}, nil)
	if err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if rep.GiveUps == 0 {
		t.Fatal("expected frames to be given up across the partition")
	}
	if !rep.Stalled() {
		t.Fatal("expected the islanded rounds to stall into the watchdog")
	}
	// p1 heard nobody: every round it completed must suspect exactly
	// {0, 2} — the give-ups degraded into suspicions, not a hang.
	sawIsland := false
	for _, s := range rep.Stalls {
		if s.P == 1 {
			sawIsland = true
			if len(s.Missing) != 2 || s.Missing[0] != 0 || s.Missing[1] != 2 {
				t.Fatalf("p1 stall missing %v, want [0 2]", s.Missing)
			}
		}
	}
	if !sawIsland {
		t.Fatalf("no stall recorded for the islanded process; stalls: %v", rep.Stalls)
	}
	for r := 1; r <= out.Trace.Len(); r++ {
		rec := out.Trace.Round(r)
		if !rec.Active.Has(1) {
			t.Fatalf("round %d: islanded p1 not active — it deadlocked instead of degrading", r)
		}
		d := rec.Suspects[1]
		if !d.Has(0) || !d.Has(2) {
			t.Fatalf("round %d: D(1,r) = %s, want {0,2}", r, d)
		}
	}
	// The mainland still reached its n-f quorum without p1.
	for _, p := range []core.PID{0, 2} {
		if len(out.Views[p]) != rounds {
			t.Fatalf("p%d completed %d rounds, want %d", p, len(out.Views[p]), rounds)
		}
	}
}

// TestUnlimitedAttemptsNeverGiveUp pins the documented maxAttempts
// contract: negative means unlimited, so under the same partition the
// sender keeps retransmitting until the run ends and GiveUps stays zero.
func TestUnlimitedAttemptsNeverGiveUp(t *testing.T) {
	plan := faultnet.Plan{Seed: 1, Components: []faultnet.Component{{
		Kind:   faultnet.Partition,
		Groups: [][]core.PID{{0, 2}, {1}},
	}}}
	_, rep, err := RunRounds(3, 1, 1, RoundsConfig{
		Net:           msgnet.Config{Chooser: core.Seeded(11), Faults: plan.Injector()},
		Link:          Config{retransmitAfter: 4, retransmitCap: 8, maxAttempts: -1},
		WatchdogSteps: 400,
		LingerSteps:   100,
	}, nil)
	if err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if rep.GiveUps != 0 {
		t.Fatalf("unlimited attempts gave up %d frames", rep.GiveUps)
	}
	if rep.Retransmissions == 0 {
		t.Fatal("expected ongoing retransmissions across the partition")
	}
}
