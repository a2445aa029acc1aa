package msgnet

import (
	"errors"
	"testing"

	"repro/internal/core"
)

// TestRestartFreshIncarnation crashes p0 after two operations and checks
// that a second incarnation spawns with the same pid, a reset operation
// budget, and Incarnation 2 — and that its return value supersedes the
// crashed incarnation's unwind.
func TestRestartFreshIncarnation(t *testing.T) {
	const n = 3
	out, err := Run(n, Config{
		Crash:   map[core.PID]int{0: 2},
		Restart: map[core.PID]int{0: 5},
	}, func(nd *Node) (core.Value, error) {
		if nd.Me == 0 && nd.Incarnation() == 1 {
			// Burn operations until the crash fires.
			for {
				if err := nd.Send(1, "from-first-life"); err != nil {
					return nil, err
				}
			}
		}
		if nd.Me == 0 {
			return "second-life", nil
		}
		// Peers drain whatever arrives until timeout so the run ends.
		for {
			if _, ok, err := nd.RecvTimeout(nd.Clock() + 50); err != nil {
				return nil, err
			} else if !ok {
				return "peer-done", nil
			}
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !out.Crashed.Has(0) {
		t.Fatalf("p0 not recorded as crashed: %s", out.Crashed)
	}
	if !out.Restarted.Has(0) {
		t.Fatalf("p0 not recorded as restarted: %s", out.Restarted)
	}
	if out.Values[0] != "second-life" {
		t.Fatalf("p0 final value %v, want second-life", out.Values[0])
	}
	if e, ok := out.Errs[0]; ok {
		t.Fatalf("p0 still has error %v after restart", e)
	}
}

// TestRestartMailboxCleared checks amnesia at the network layer: messages
// queued for a process while it is down are lost at restart.
func TestRestartMailboxCleared(t *testing.T) {
	const n = 2
	out, err := Run(n, Config{
		Crash:   map[core.PID]int{0: 0}, // p0 crashes on its first operation
		Restart: map[core.PID]int{0: 100},
	}, func(nd *Node) (core.Value, error) {
		if nd.Me == 1 {
			// Send to p0 while it is down, then exit.
			if err := nd.Send(0, "lost"); err != nil {
				return nil, err
			}
			return "sender-done", nil
		}
		if nd.Incarnation() == 1 {
			// First life: the very first operation crashes.
			_, err := nd.Recv()
			return nil, err
		}
		// Second life: the pre-restart message must be gone.
		if env, ok, err := nd.RecvTimeout(nd.Clock() + 20); err != nil {
			return nil, err
		} else if ok {
			return nil, errors.New("received pre-restart message " + env.Payload.(string))
		}
		return "empty-mailbox", nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Values[0] != "empty-mailbox" {
		t.Fatalf("p0 value %v (err %v), want empty-mailbox", out.Values[0], out.Errs[0])
	}
}

// TestRestartReceivesPostRestartTraffic checks the fresh incarnation is
// re-bound to the old pid: messages sent after the restart reach it.
func TestRestartReceivesPostRestartTraffic(t *testing.T) {
	const n = 2
	out, err := Run(n, Config{
		Crash:   map[core.PID]int{0: 0},
		Restart: map[core.PID]int{0: 3},
	}, func(nd *Node) (core.Value, error) {
		if nd.Me == 1 {
			// Keep sending; early copies die with the first incarnation's
			// mailbox, later ones reach the second.
			for i := 0; i < 30; i++ {
				if err := nd.Send(0, i); err != nil {
					return nil, err
				}
			}
			return "sender-done", nil
		}
		if nd.Incarnation() == 1 {
			_, err := nd.Recv()
			return nil, err
		}
		env, err := nd.Recv()
		if err != nil {
			return nil, err
		}
		return env.Payload, nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, ok := out.Values[0].(int); !ok {
		t.Fatalf("restarted p0 got %v (err %v), want a post-restart int", out.Values[0], out.Errs[0])
	}
}

// TestRestartNoRestartWithoutEntry: a crashed process without a Restart
// entry stays down (the pre-restart behaviour is unchanged).
func TestRestartNoRestartWithoutEntry(t *testing.T) {
	const n = 2
	out, err := Run(n, Config{
		Crash: map[core.PID]int{0: 0},
	}, func(nd *Node) (core.Value, error) {
		if nd.Me == 0 {
			// A send is always schedulable, so the crash fires here.
			err := nd.Send(1, "never-sent")
			return nil, err
		}
		return "alive", nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !out.Crashed.Has(0) || out.Restarted.Count() != 0 {
		t.Fatalf("crashed=%s restarted=%s", out.Crashed, out.Restarted)
	}
	if !errors.Is(out.Errs[0], ErrCrashed) {
		t.Fatalf("p0 err %v, want ErrCrashed", out.Errs[0])
	}
}

// --- RecvTimeout edge cases (the PR 2 API had only happy-path coverage) ---

// TestRecvTimeoutZeroDeadline: a deadline already in the past times out on
// the very next scheduled operation instead of blocking.
func TestRecvTimeoutZeroDeadline(t *testing.T) {
	out, err := Run(1, Config{}, func(nd *Node) (core.Value, error) {
		_, ok, err := nd.RecvTimeout(0)
		if err != nil {
			return nil, err
		}
		return ok, nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Values[0] != false {
		t.Fatalf("zero deadline delivered a message: %v", out.Values[0])
	}
}

// TestRecvTimeoutDeliveryBeatsDeadline: when a message is already queued at
// the moment the expired deadline would fire, delivery wins.
func TestRecvTimeoutDeliveryBeatsDeadline(t *testing.T) {
	// Chooser always picks the lowest pid, so p0 sends before p1's expired
	// timeout is scheduled — p1's mailbox is non-empty by then.
	firstChooser := func(step int, options []core.PID) int { return 0 }
	out, err := Run(2, Config{Chooser: firstChooser}, func(nd *Node) (core.Value, error) {
		if nd.Me == 0 {
			if err := nd.Send(1, "beat-the-clock"); err != nil {
				return nil, err
			}
			return nil, nil
		}
		env, ok, err := nd.RecvTimeout(0) // deadline long past
		if err != nil {
			return nil, err
		}
		if !ok {
			return "timed-out", nil
		}
		return env.Payload, nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Values[1] != "beat-the-clock" {
		t.Fatalf("p1 got %v, want the queued message", out.Values[1])
	}
}

// TestRecvTimeoutAfterSenderCrash: a receiver waiting on a crashed sender
// times out (via virtual-time fast-forward) instead of deadlocking.
func TestRecvTimeoutAfterSenderCrash(t *testing.T) {
	out, err := Run(2, Config{
		Crash: map[core.PID]int{0: 0},
	}, func(nd *Node) (core.Value, error) {
		if nd.Me == 0 {
			// Crashes on this first operation: the send never happens.
			err := nd.Send(1, "never-arrives")
			return nil, err
		}
		_, ok, err := nd.RecvTimeout(1000)
		if err != nil {
			return nil, err
		}
		return ok, nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.Values[1] != false {
		t.Fatalf("p1 got %v, want a timeout after sender crash", out.Values[1])
	}
	if !out.Crashed.Has(0) {
		t.Fatalf("p0 not crashed: %s", out.Crashed)
	}
}
