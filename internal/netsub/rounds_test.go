package netsub

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msgnet"
)

// emitPID is the canonical agreement input: each process proposes its
// own pid as an int.
func emitPID(me core.PID, r int, received map[core.PID]core.Value, _ core.Set) core.Value {
	if r == 1 {
		return int(me)
	}
	// Later rounds forward the minimum heard so far, the flooding
	// k-set-agreement shape.
	min := int(me)
	for _, v := range received {
		if x, ok := v.(int); ok && x < min {
			min = x
		}
	}
	return min
}

func TestRunRoundsFaultFree(t *testing.T) {
	const n, f, rounds = 4, 1, 3
	out, rep, err := RunRounds(n, f, rounds, RoundsConfig{
		Node:     testConfig(),
		Watchdog: 2 * time.Second,
		Linger:   100 * time.Millisecond,
	}, emitPID)
	if err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if rep.Stalled() {
		t.Fatalf("fault-free run stalled: %+v", *rep)
	}
	if out.Trace.Len() != rounds {
		t.Fatalf("trace length %d, want %d", out.Trace.Len(), rounds)
	}
	for r := 1; r <= rounds; r++ {
		rec := out.Trace.Round(r)
		for i := 0; i < n; i++ {
			if !rec.Active.Has(core.PID(i)) {
				t.Fatalf("round %d: p%d inactive", r, i)
			}
			if d := rec.Suspects[i].Count(); d > f {
				t.Fatalf("round %d: |D(%d,r)| = %d > f", r, i, d)
			}
		}
	}
	for p := core.PID(0); int(p) < n; p++ {
		if len(out.Views[p]) != rounds {
			t.Fatalf("p%d recorded %d rounds", p, len(out.Views[p]))
		}
	}
}

// TestDeadPeerDegradesIntoSuspicion: a process that never comes up
// must surface as a D(i,r) suspicion at every live process, with the
// rounds completing on the n-f quorum — loss degrades into suspicion,
// never into deadlock. This is the wall-clock analogue of the
// reliablelink give-up test.
func TestDeadPeerDegradesIntoSuspicion(t *testing.T) {
	const n, f, rounds = 3, 1, 2
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	// p2's listener closes immediately: it is dead for the whole run.
	lns[2].Close()

	nodes := make([]*Node, 2)
	for i := 0; i < 2; i++ {
		cfg := testConfig()
		cfg.Me, cfg.N, cfg.Addrs, cfg.Listener = core.PID(i), n, addrs, lns[i]
		nd, err := Start(cfg)
		if err != nil {
			t.Fatalf("start p%d: %v", i, err)
		}
		nodes[i] = nd
		defer nd.Close()
	}

	type result struct {
		rec *core.RoundRec
		err error
	}
	results := make([]result, 2)
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			rec, _, err := msgnet.RunSubstrateRounds(nodes[i], f, rounds, 2000, 100, emitPID, nil)
			results[i] = result{rec, err}
			done <- i
		}(i)
	}
	for range nodes {
		<-done
	}
	for i := 0; i < 2; i++ {
		if results[i].err != nil {
			t.Fatalf("p%d: %v", i, results[i].err)
		}
		rec := results[i].rec
		if len(rec.Dsets) != rounds {
			t.Fatalf("p%d completed %d rounds, want %d", i, len(rec.Dsets), rounds)
		}
		for r, d := range rec.Dsets {
			if !d.Has(2) || d.Count() != 1 {
				t.Fatalf("p%d round %d: D = %s, want {2}", i, r+1, d)
			}
		}
	}
}

// TestKilledAndRestartedPeerTerminates is the acceptance scenario: a
// peer is killed mid-run and restarted with a fresh incarnation; the
// survivors complete every round (suspecting it while it is away), the
// restarted process re-enters, works through its rounds — stalling into
// suspicions where the cohort has moved on — and the whole system
// terminates. No participant may deadlock.
func TestKilledAndRestartedPeerTerminates(t *testing.T) {
	const n, f, rounds = 3, 1, 6
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	mk := func(i int, incarnation int, ln net.Listener) *Node {
		cfg := testConfig()
		cfg.Me, cfg.N, cfg.Addrs, cfg.Incarnation = core.PID(i), n, addrs, incarnation
		cfg.Listener = ln
		nd, err := Start(cfg)
		if err != nil {
			t.Fatalf("start p%d inc%d: %v", i, incarnation, err)
		}
		return nd
	}

	survivors := []*Node{mk(0, 1, lns[0]), mk(2, 1, lns[2])}
	victim := mk(1, 1, lns[1])

	type result struct {
		rec    *core.RoundRec
		stalls int
		err    error
	}
	out := make(chan result, 4)
	for _, nd := range survivors {
		go func(nd *Node) {
			rec, st, err := msgnet.RunSubstrateRounds(nd, f, rounds, 500, 200, emitPID, nil)
			out <- result{rec, len(st), err}
		}(nd)
	}
	// The victim participates in its first rounds, then is killed.
	victimDone := make(chan result, 1)
	go func(nd *Node) {
		rec, st, err := msgnet.RunSubstrateRounds(nd, f, 2, 500, 0, emitPID, nil)
		nd.Close()
		victimDone <- result{rec, len(st), err}
	}(victim)

	killed := <-victimDone
	if killed.err != nil {
		t.Fatalf("victim before kill: %v", killed.err)
	}

	// Restart on the same address, fresh incarnation, fresh round 1.
	var reborn *Node
	for attempt := 0; ; attempt++ {
		cfg := testConfig()
		cfg.Me, cfg.N, cfg.Addrs, cfg.Incarnation = 1, n, addrs, 2
		nd, err := Start(cfg)
		if err == nil {
			reborn = nd
			break
		}
		if attempt > 50 {
			t.Fatalf("rebind %s: %v", addrs[1], err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer reborn.Close()
	go func(nd *Node) {
		rec, st, err := msgnet.RunSubstrateRounds(nd, f, rounds, 500, 0, emitPID, nil)
		out <- result{rec, len(st), err}
	}(reborn)

	deadline := time.After(30 * time.Second)
	var results []result
	for len(results) < 3 {
		select {
		case r := <-out:
			results = append(results, r)
		case <-deadline:
			t.Fatal("system did not terminate: a participant deadlocked")
		}
	}
	for _, nd := range survivors {
		nd.Close()
	}
	for _, r := range results {
		if r.err != nil {
			t.Fatalf("participant error: %v", r.err)
		}
		if len(r.rec.Dsets) != rounds {
			t.Fatalf("participant completed %d rounds, want %d", len(r.rec.Dsets), rounds)
		}
	}
}

// TestRunRoundsReturnsLowestPidError: when several nodes fail, the
// run's error is the lowest pid's whichever failed first on the wall
// clock, and the report keeps them all. p1 and p2 emit a value the
// codec refuses, so both fail their first broadcast.
func TestRunRoundsReturnsLowestPidError(t *testing.T) {
	const n, f, rounds = 3, 1, 1
	for i := 0; i < 4; i++ {
		_, rep, err := RunRounds(n, f, rounds, RoundsConfig{
			Node:     testConfig(),
			Watchdog: 50 * time.Millisecond,
			Linger:   10 * time.Millisecond,
		}, func(me core.PID, _ int, _ map[core.PID]core.Value, _ core.Set) core.Value {
			if me == 0 {
				return 0
			}
			return struct{}{}
		})
		var unsupported *UnsupportedTypeError
		if !errors.As(err, &unsupported) || !strings.HasPrefix(err.Error(), "netsub: p1: ") {
			t.Fatalf("run %d: error %v, want p1's unsupported-type error", i, err)
		}
		if len(rep.Errs) != 2 || rep.Errs[1] == nil || rep.Errs[2] == nil {
			t.Fatalf("run %d: report errors %v, want p1 and p2", i, rep.Errs)
		}
	}
}
