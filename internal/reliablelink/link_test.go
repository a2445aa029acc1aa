package reliablelink

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
	"repro/internal/obs"
)

// linger is the round loop's linger on its own: zero rounds, then ticks
// of receive-and-discard with the link serving acks and retransmissions.
func linger(l *Link, ticks int) error {
	_, _, err := msgnet.RunSubstrateRounds(l, 0, 0, 0, ticks, nil, nil)
	return err
}

func TestLossyLinkRecoveredByRetransmission(t *testing.T) {
	// 40% drop on every link: all 20 messages must still arrive, each
	// exactly once, purely via retransmission. (The link guarantees
	// exactly-once, not FIFO: a retransmission can be overtaken.)
	plan := faultnet.Plan{Seed: 11, Components: []faultnet.Component{{Kind: faultnet.Drop, Rate: 0.4}}}
	var delivered []core.Value
	var sendStats Stats
	_, err := msgnet.Run(2, msgnet.Config{Faults: plan.Injector()}, func(nd *msgnet.Node) (core.Value, error) {
		l := New(nd, Config{RetransmitAfter: 4})
		if nd.Me == 0 {
			for i := 0; i < 20; i++ {
				if err := l.Send(1, i); err != nil {
					return nil, err
				}
			}
			err := linger(l, 2000)
			sendStats = l.Stats()
			return nil, err
		}
		for len(delivered) < 20 {
			env, ok, err := l.RecvTimeout(nd.Clock() + 4000)
			if err != nil {
				return nil, err
			}
			if !ok {
				t.Errorf("receiver timed out after %d/20 messages", len(delivered))
				return nil, nil
			}
			delivered = append(delivered, env.Payload)
		}
		return nil, linger(l, 500)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 20 {
		t.Fatalf("delivered %d/20", len(delivered))
	}
	seen := make(map[core.Value]bool)
	for _, v := range delivered {
		if seen[v] {
			t.Fatalf("value %v delivered twice", v)
		}
		seen[v] = true
	}
	for i := 0; i < 20; i++ {
		if !seen[i] {
			t.Fatalf("value %d never delivered", i)
		}
	}
	if sendStats.Retransmissions == 0 {
		t.Fatal("40% drop but zero retransmissions — the loss path was never exercised")
	}
}

func TestDuplicateFramesSuppressed(t *testing.T) {
	// Every message duplicated 2 extra times: receiver must see each value
	// exactly once and count the suppressed copies.
	plan := faultnet.Plan{Seed: 3, Components: []faultnet.Component{
		{Kind: faultnet.Duplicate, Rate: 1, Copies: 2},
	}}
	var delivered []core.Value
	var recvStats Stats
	_, err := msgnet.Run(2, msgnet.Config{Faults: plan.Injector()}, func(nd *msgnet.Node) (core.Value, error) {
		l := New(nd, Config{})
		if nd.Me == 0 {
			for i := 0; i < 5; i++ {
				if err := l.Send(1, i); err != nil {
					return nil, err
				}
			}
			return nil, linger(l, 500)
		}
		for len(delivered) < 5 {
			env, ok, err := l.RecvTimeout(nd.Clock() + 1000)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			delivered = append(delivered, env.Payload)
		}
		err := linger(l, 200)
		recvStats = l.Stats()
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(delivered) != 5 {
		t.Fatalf("delivered %d/5", len(delivered))
	}
	if recvStats.DupFramesReceived == 0 {
		t.Fatal("every frame tripled but no duplicates recorded")
	}
}

func TestGiveUpAfterMaxAttempts(t *testing.T) {
	// A total blackout link: the sender must give the frame up after
	// MaxAttempts rather than retransmit forever.
	plan := faultnet.Plan{Seed: 1, Components: []faultnet.Component{{Kind: faultnet.Drop, Rate: 1}}}
	var st Stats
	var buf bytes.Buffer
	log := obs.NewEventLog(&buf)
	_, err := msgnet.Run(2, msgnet.Config{Faults: plan.Injector()}, func(nd *msgnet.Node) (core.Value, error) {
		l := New(nd, Config{RetransmitAfter: 2, MaxAttempts: 3, Observer: log})
		if nd.Me == 0 {
			if err := l.Send(1, "doomed"); err != nil {
				return nil, err
			}
			err := linger(l, 300)
			st = l.Stats()
			return nil, err
		}
		_, _, err := l.RecvTimeout(nd.Clock() + 300)
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.GiveUps != 1 {
		t.Fatalf("give-ups = %d, want 1", st.GiveUps)
	}
	if st.Retransmissions != 3 {
		t.Fatalf("retransmissions = %d, want MaxAttempts = 3", st.Retransmissions)
	}
	if !bytes.Contains(buf.Bytes(), []byte("rlink.giveup")) {
		t.Fatal("no rlink.giveup event logged")
	}
}

func TestRunRoundsFaultFreeMatchesSubstrate(t *testing.T) {
	// Without faults the reliable round protocol induces an eq.(3) trace
	// just like msgnet.RunRounds.
	out, rep, err := RunRounds(4, 1, 3, RoundsConfig{
		Net: msgnet.Config{Chooser: msgnet.Seeded(7)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stalled() {
		t.Fatalf("fault-free run stalled: %v", rep.Stalls)
	}
	if out.Trace.Len() != 3 {
		t.Fatalf("trace rounds = %d, want 3", out.Trace.Len())
	}
	for _, rec := range out.Trace.Rounds {
		for i, d := range rec.Suspects {
			if !rec.Active.Has(core.PID(i)) {
				continue
			}
			if d.Count() > 1 {
				t.Fatalf("round %d: |D(%d)| = %d > f = 1", rec.R, i, d.Count())
			}
		}
	}
}

func TestRunRoundsSurvivesHeavyLoss(t *testing.T) {
	// 30% drop, n=4 f=1, 3 rounds: retransmission must carry every round to
	// quorum with no stalls and no deadlock.
	plan := faultnet.Plan{Seed: 99, Components: []faultnet.Component{{Kind: faultnet.Drop, Rate: 0.3}}}
	out, rep, err := RunRounds(4, 1, 3, RoundsConfig{
		Net:  msgnet.Config{Chooser: msgnet.Seeded(5), Faults: plan.Injector()},
		Link: Config{RetransmitAfter: 4},
	}, nil)
	if err != nil {
		t.Fatalf("err = %v\nreport: %+v", err, *rep)
	}
	if rep.Stalled() {
		t.Fatalf("stalled despite retransmission: %+v", *rep)
	}
	if rep.Retransmissions == 0 {
		t.Fatal("30% loss but zero retransmissions")
	}
	if out.Trace.Len() != 3 {
		t.Fatalf("trace rounds = %d, want 3", out.Trace.Len())
	}
}

func TestRunRoundsWatchdogConvertsPartitionToSuspicion(t *testing.T) {
	// p3 is cut off for the whole run by an unhealed partition. The other
	// processes' watchdogs must fire... no: with n=4, f=1 they reach quorum
	// n−f=3 without p3, so no stall; p3 itself stalls waiting for the
	// majority side and suspects it, degrading into D-entries, not deadlock.
	plan := faultnet.Plan{Seed: 1, Components: []faultnet.Component{{
		Kind:   faultnet.Partition,
		Groups: [][]core.PID{{0, 1, 2}, {3}},
		Name:   "island",
	}}}
	out, rep, err := RunRounds(4, 1, 2, RoundsConfig{
		Net:           msgnet.Config{Chooser: msgnet.Seeded(2), Faults: plan.Injector()},
		Link:          Config{RetransmitAfter: 4, MaxAttempts: 4},
		WatchdogSteps: 400,
		LingerSteps:   100,
	}, nil)
	if err != nil {
		t.Fatalf("partition must degrade, not error: %v\n%+v", err, *rep)
	}
	if !rep.Stalled() {
		t.Fatal("isolated p3 never stalled — watchdog did not fire")
	}
	for _, s := range rep.Stalls {
		if s.P != 3 {
			t.Fatalf("unexpected stall on the majority side: %s", s)
		}
	}
	// p3's suspicion sets must cover the entire majority side.
	for _, rec := range out.Trace.Rounds {
		d := rec.Suspects[3]
		for _, q := range []core.PID{0, 1, 2} {
			if !d.Has(q) {
				t.Fatalf("round %d: p3 reached quorum across an unhealed partition (D(3)=%s)", rec.R, d)
			}
		}
	}
}

func TestRunRoundsDeterministic(t *testing.T) {
	run := func() string {
		plan := faultnet.Plan{Seed: 44, Components: []faultnet.Component{
			{Kind: faultnet.Drop, Rate: 0.2},
			{Kind: faultnet.Delay, Rate: 0.3, MaxDelay: 6},
		}}
		out, rep, err := RunRounds(4, 1, 3, RoundsConfig{
			Net:  msgnet.Config{Chooser: msgnet.Seeded(8), Faults: plan.Injector()},
			Link: Config{RetransmitAfter: 4},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s|%+v", out.Trace, *rep)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seeds diverged:\n%s\nvs\n%s", a, b)
	}
}
