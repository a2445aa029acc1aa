package netsub

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
	"repro/internal/reliablelink"
)

func proxiedConfig(t *testing.T, n int, plan faultnet.Plan) RoundsConfig {
	t.Helper()
	lns, err := WrapAll(n, plan)
	if err != nil {
		t.Fatalf("WrapAll: %v", err)
	}
	return RoundsConfig{
		Node:      testConfig(),
		listeners: lns,
		Linger:    100 * time.Millisecond,
	}
}

func TestProxyPassThrough(t *testing.T) {
	// An empty plan must be invisible: the same fault-free guarantees as
	// the raw substrate, through the full hello/heartbeat/data pipeline.
	const n, f, rounds = 3, 1, 2
	out, rep, err := RunRounds(n, f, rounds, proxiedConfig(t, n, faultnet.Plan{Seed: 1}), emitPID)
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
	cfg := proxiedConfig(t, n, plan)
	cfg.watchdog = 300 * time.Millisecond
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
// through the socket proxy over real TCP, and on both every island
// suspects exactly the processes outside it, round for round. Equal
// traces are equal chaos verdicts: the campaign's decision rule and safety
// checks read nothing else. The plans are an island against a quorum
// mainland, and the three-way split where no island reaches n−f.
func TestProxyPartitionCrossValidatesFaultnet(t *testing.T) {
	const rounds = 2
	for _, tc := range []struct {
		name   string
		n, f   int
		groups [][]core.PID
	}{
		{"island-p0", 3, 1, [][]core.PID{{0}, {1, 2}}},
		{"split-brain", 4, 1, [][]core.PID{{0}, {1}, {2, 3}}},
	} {
		plan := faultnet.Plan{Seed: 1, Components: []faultnet.Component{{
			Kind: faultnet.Partition, Groups: tc.groups, Name: tc.name,
		}}}
		want := make([]string, tc.n) // D(i,r): everyone outside i's island
		for _, g := range tc.groups {
			outside := core.FullSet(tc.n)
			for _, p := range g {
				outside.Remove(p)
			}
			for _, p := range g {
				want[p] = outside.String()
			}
		}
		check := func(sub string, out *core.RoundOutcome) {
			t.Helper()
			if out.Trace.Len() != rounds {
				t.Fatalf("%s %s: trace length %d, want %d", tc.name, sub, out.Trace.Len(), rounds)
			}
			for r := 1; r <= rounds; r++ {
				rec := out.Trace.Round(r)
				for i := 0; i < tc.n; i++ {
					if d := rec.Suspects[i].String(); d != want[i] {
						t.Fatalf("%s %s round %d: D(%d,r) = %s, want %s", tc.name, sub, r, i, d, want[i])
					}
				}
			}
		}

		vout, vrep, err := reliablelink.RunRounds(tc.n, tc.f, rounds, reliablelink.RoundsConfig{
			Net:           msgnet.Config{Chooser: core.Seeded(11), Faults: plan.Injector()},
			WatchdogSteps: 600,
			LingerSteps:   200,
		}, nil)
		if err != nil {
			t.Fatalf("%s virtual run: %v", tc.name, err)
		}
		if !vrep.Stalled() {
			t.Fatalf("%s: virtual run did not stall across the partition", tc.name)
		}
		check("virtual", vout)

		cfg := proxiedConfig(t, tc.n, plan)
		cfg.watchdog = 400 * time.Millisecond
		nout, nrep, err := RunRounds(tc.n, tc.f, rounds, cfg, emitPID)
		if err != nil {
			t.Fatalf("%s tcp run: %v", tc.name, err)
		}
		if !nrep.Stalled() {
			t.Fatalf("%s: tcp run did not stall across the partition", tc.name)
		}
		check("tcp", nout)
	}
}

func TestProxyResetRedials(t *testing.T) {
	// Connection resets every few frames force the pool through its
	// redial path mid-protocol; queued frames survive in the bounded
	// queue and flush after reconnect, so the rounds still complete.
	const n, f, rounds = 2, 1, 4
	cfg := proxiedConfig(t, n, faultnet.Plan{Seed: 5})
	for _, ln := range cfg.listeners {
		ln.(*ChaosListener).resetEvery = 2
	}
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
		cfg := proxiedConfig(t, n, plan)
		cfg.watchdog = 250 * time.Millisecond
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
