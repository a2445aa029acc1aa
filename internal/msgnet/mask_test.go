package msgnet

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestMaskHygiene: the word masks are the step's only record of who has an
// operation posted, whose mailbox holds mail and which of its links do, so
// a bit left behind would reach a later chooser call. At n = 70, past the
// 64 pids of one word: p66 crashes on its first operation while every other
// live process queues mail to it, and restarts on an empty mailbox (DESIGN
// §11 contract item 4); the run then deadlocks with mail queued at p0 and
// p69 from senders in both words, and the scratch it releases has every
// mask word zero and no queued payload, over its whole capacity.
func TestMaskHygiene(t *testing.T) {
	const n, restarted = 70, 66
	var sc *scratch
	var atRestart error
	_, err := Run(n, Config{
		Crash:   map[core.PID]int{restarted: 0},
		Restart: map[core.PID]int{restarted: 1000},
	}, func(nd *Node) (core.Value, error) {
		sc = nd.sched.scratch
		switch {
		case nd.Me == 0 || nd.Me == n-1:
			return nil, nil // leaves its mail unread
		case nd.Me == restarted && nd.Incarnation() == 1:
			_, err := nd.Recv()
			return nil, err
		case nd.Me == restarted:
			atRestart = boxState(sc, restarted)
			return nil, nil
		}
		for _, to := range []core.PID{restarted, 0, n - 1} {
			if err := nd.Send(to, int(nd.Me)); err != nil {
				return nil, err
			}
		}
		_, err := nd.Recv()
		return nil, err
	})
	if atRestart != nil {
		t.Fatalf("restarted p%d: %v", restarted, atRestart)
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) || len(dl.InFlight) != 2*(n-3) || len(dl.Blocked) != n-3 {
		t.Fatalf("err = %v, want a deadlock with %d processes blocked and %d links in flight", err, n-3, 2*(n-3))
	}
	for name, words := range map[string][]uint64{
		"posted": sc.posted, "receive": sc.receive, "hasMail": sc.hasMail, "nonEmpty": sc.nonEmpty,
	} {
		for i, w := range words[:cap(words)] {
			if w != 0 {
				t.Errorf("released %s word %d = %#x", name, i, w)
			}
		}
	}
	for i, l := range sc.links[:cap(sc.links)] {
		if len(l.q) != 0 || l.head != 0 {
			t.Fatalf("released link %d holds %d payloads", i, len(l.q)-l.head)
		}
	}
	for i, p := range sc.procs[:cap(sc.procs)] {
		if p.pending != nil || p.box.links != nil || p.box.owner != nil {
			t.Fatalf("released proc %d is not cleared: %+v", i, p)
		}
	}
	if len(sc.delayed) != 0 {
		t.Fatalf("released delay queue holds %d copies", len(sc.delayed))
	}
}

// boxState reports pid's mailbox if it holds mail by count, by link mask or
// by its bit in the run's mail mask.
func boxState(sc *scratch, pid core.PID) error {
	box := &sc.procs[pid].box
	for i, w := range box.nonEmpty {
		if w != 0 {
			return fmt.Errorf("link mask word %d = %#x", i, w)
		}
	}
	if box.mail != 0 || sc.hasMail[pid>>6]&(1<<(pid&63)) != 0 {
		return fmt.Errorf("%d payloads queued, mail bit %v", box.mail, sc.hasMail[pid>>6]&(1<<(pid&63)) != 0)
	}
	return nil
}
