package simulate

import (
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hoalg"
)

// probe is a target-system algorithm that checks every delivered message is
// exactly the sender's round emission (me*1000 + round), then decides after
// the configured number of simulated rounds.
type probe struct {
	me     core.PID
	rounds int
	bad    []string
	seen   int
}

func probeFactory(rounds int, sink *[]*probe) core.Factory {
	return func(me core.PID, n int, input core.Value) core.Algorithm {
		p := &probe{me: me, rounds: rounds}
		*sink = append(*sink, p)
		return p
	}
}

func (p *probe) Emit(r int) core.Message { return int(p.me)*1000 + r }

func (p *probe) Deliver(r int, msgs core.Inbox, suspects core.Set) (core.Value, bool) {
	p.seen++
	msgs.ForEach(func(from core.PID, m core.Message) {
		if want := int(from)*1000 + r; m != want {
			p.bad = append(p.bad, fmt.Sprintf("round %d from %d: %v ≠ %d", r, from, m, want))
		}
	})
	if suspects.Count()+msgs.Len() < suspects.Universe() {
		p.bad = append(p.bad, fmt.Sprintf("round %d: S ∪ D does not cover", r))
	}
	if r >= p.rounds {
		return fmt.Sprintf("done@%d", r), true
	}
	return nil, false
}

func TestRunTwoForOneUnionImplementsSharedMemory(t *testing.T) {
	// §2 item 4 executable: the union-relay construction runs a
	// shared-memory-system algorithm on an eq.(3) base with faithful
	// message contents, and the simulated trace satisfies eqs. (3)+(4).
	n, f := 7, 3 // 2f < n
	for seed := int64(0); seed < 25; seed++ {
		var probes []*probe
		res, err := RunTwoForOne(n, make([]core.Value, n), probeFactory(3, &probes),
			adversary.AsyncBudget(n, f, false, seed), ModeUnion, f, 10)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := hoalg.SharedMemory(f).Compile().Check(res.Result.Trace); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.BaseRounds != 6 {
			t.Fatalf("seed %d: base rounds = %d, want 6 (2 per simulated)", seed, res.BaseRounds)
		}
		for _, p := range probes {
			if len(p.bad) > 0 {
				t.Fatalf("seed %d: message faithfulness broken: %v", seed, p.bad)
			}
			if p.seen != 3 {
				t.Fatalf("seed %d: p%d saw %d simulated rounds", seed, p.me, p.seen)
			}
		}
		for p, r := range res.Result.DecidedAt {
			if r != 3 {
				t.Fatalf("seed %d: process %d decided at simulated round %d", seed, p, r)
			}
		}
	}
}

func TestRunTwoForOneAdoptImplementsA(t *testing.T) {
	// §2 item 3 executable: the adopt-a-compliant-view construction runs
	// an eq.(3)-system algorithm on a B-system base.
	n, f, tt := 9, 2, 4 // f < t, 2t < n
	for seed := int64(0); seed < 25; seed++ {
		var probes []*probe
		res, err := RunTwoForOne(n, make([]core.Value, n), probeFactory(3, &probes),
			adversary.BSystemOracle(n, f, tt, seed), ModeAdopt, f, 10)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := hoalg.PerRound(f).Compile().Check(res.Result.Trace); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range probes {
			if len(p.bad) > 0 {
				t.Fatalf("seed %d: %v", seed, p.bad)
			}
		}
	}
}

func TestRunTwoForOneRejectsBudgetViolation(t *testing.T) {
	// ModeAdopt on a base where NO source fits the budget must surface an
	// error: t ≥ n−f sources all miss more than f.
	n := 4
	oracle := core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		// Everyone misses 2 (> f = 1) others.
		sus := make([]core.Set, n)
		for i := range sus {
			sus[i] = core.SetOf(n, core.PID((i+1)%n), core.PID((i+2)%n))
		}
		return core.RoundPlan{Suspects: sus}
	})
	var probes []*probe
	_, err := RunTwoForOne(n, make([]core.Value, n), probeFactory(2, &probes), oracle, ModeAdopt, 1, 5)
	if err == nil {
		t.Fatal("expected a no-compliant-source error")
	}
}

// TestRunTwoForOneMatchesTraceDerivation holds the executable construction
// to its trace-level oracle: every simulated round's Active set and every
// D(i,ρ) equal what TwoRoundsToSharedMemory (ModeUnion) or BToA (ModeAdopt)
// derive from the same oracle's base trace, collected over the rounds the
// run consumed. The Crashed marking differs by design (TestGoldenRunTwoForOne).
func TestRunTwoForOneMatchesTraceDerivation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   TwoForOneMode
		n, f   int
		base   func(seed int64) core.Oracle
		derive func(*core.Trace) (*core.Trace, error)
	}{
		{"union/async", ModeUnion, 7, 3,
			func(seed int64) core.Oracle { return adversary.AsyncBudget(7, 3, false, seed) }, TwoRoundsToSharedMemory},
		{"union/crash", ModeUnion, 7, 3,
			func(seed int64) core.Oracle { return adversary.Crash(7, 3, seed) }, TwoRoundsToSharedMemory},
		{"adopt/b-system", ModeAdopt, 9, 2,
			func(seed int64) core.Oracle { return adversary.BSystemOracle(9, 2, 4, seed) },
			func(base *core.Trace) (*core.Trace, error) { return BToA(base, 2) }},
	} {
		for seed := int64(0); seed < 200; seed++ {
			var probes []*probe
			res, err := RunTwoForOne(tc.n, make([]core.Value, tc.n), probeFactory(3, &probes),
				tc.base(seed), tc.mode, tc.f, 10)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			base, err := core.CollectTrace(tc.n, res.BaseRounds, tc.base(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			want, err := tc.derive(base)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tc.name, seed, err)
			}
			got := res.Result.Trace
			if got.Len() != want.Len() {
				t.Fatalf("%s seed %d: %d simulated rounds, derivation has %d", tc.name, seed, got.Len(), want.Len())
			}
			for rho := 1; rho <= want.Len(); rho++ {
				g, w := got.Round(rho), want.Round(rho)
				if !g.Active.Equal(w.Active) {
					t.Fatalf("%s seed %d round %d: Active %s, derivation %s", tc.name, seed, rho, g.Active, w.Active)
				}
				for i := range w.Suspects {
					if !g.Suspects[i].Equal(w.Suspects[i]) {
						t.Fatalf("%s seed %d round %d: D(%d) = %s, derivation %s",
							tc.name, seed, rho, i, g.Suspects[i], w.Suspects[i])
					}
				}
			}
		}
	}
}
