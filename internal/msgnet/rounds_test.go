package msgnet

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/predicate"
)

func TestRunRoundsSatisfiesEq3(t *testing.T) {
	// §2 item 3: the round-enforced async system induces exactly the
	// |D(i,r)| ≤ f predicate.
	n, f, rounds := 5, 2, 4
	for seed := int64(0); seed < 20; seed++ {
		out, err := RunRounds(n, f, rounds, Config{Chooser: Seeded(seed)}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Trace.Len() != rounds {
			t.Fatalf("seed %d: %d rounds", seed, out.Trace.Len())
		}
		if err := predicate.PerRoundBudget(f).Check(out.Trace); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, out.Trace)
		}
	}
}

func TestRunRoundsSelfMessageMayBeMissed(t *testing.T) {
	// The paper allows p_i ∈ D(i,r): with f ≥ 1 some seed should show a
	// process missing its own broadcast (delivered late).
	n, f, rounds := 4, 2, 3
	sawSelfSuspect := false
	for seed := int64(0); seed < 60 && !sawSelfSuspect; seed++ {
		out, err := RunRounds(n, f, rounds, Config{Chooser: Seeded(seed)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range out.Trace.Rounds {
			rec.Active.ForEach(func(p core.PID) {
				if rec.Suspects[p].Has(p) {
					sawSelfSuspect = true
				}
			})
		}
	}
	if !sawSelfSuspect {
		t.Fatal("no execution had a process suspect itself — scheduler too tame")
	}
}

func TestRunRoundsWithCrash(t *testing.T) {
	n, f, rounds := 5, 2, 4
	out, err := RunRounds(n, f, rounds, Config{
		Chooser: Seeded(7),
		Crash:   map[core.PID]int{4: 9},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := predicate.PerRoundBudget(f).Check(out.Trace); err != nil {
		t.Fatalf("%v\n%s", err, out.Trace)
	}
	last := out.Trace.Round(rounds)
	for _, p := range []core.PID{0, 1, 2, 3} {
		if !last.Active.Has(p) {
			t.Fatalf("survivor %d did not finish round %d", p, rounds)
		}
	}
}

func TestRunRoundsPartitionWhen2fGeN(t *testing.T) {
	// The paper's remark in §2 item 4: with 2f ≥ n, round-based message
	// passing suffers "network partition" — there are executions where in
	// some round every process is suspected by someone (eq. (4) fails).
	// With n = 2, f = 1 a process can complete a round on its own
	// message alone.
	n, f := 2, 1
	gen := func(seed int64) (*core.Trace, error) {
		out, err := RunRounds(n, f, 3, Config{Chooser: Seeded(seed)}, nil)
		if err != nil {
			return nil, err
		}
		return out.Trace, nil
	}
	if _, err := predicate.Separates(gen, predicate.PerRoundBudget(f), predicate.SomeoneSeenByAll(), 100); err != nil {
		t.Fatalf("no partition execution found: %v", err)
	}
}

func TestRunRoundsDeliversCorrectValues(t *testing.T) {
	n, f, rounds := 4, 1, 3
	emit := func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
		return int(me)*100 + r
	}
	out, err := RunRounds(n, f, rounds, Config{Chooser: Seeded(5)}, emit)
	if err != nil {
		t.Fatal(err)
	}
	for pid, views := range out.Views {
		for ri, msgs := range views {
			if len(msgs) < n-f {
				t.Fatalf("p%d round %d: only %d messages", pid, ri+1, len(msgs))
			}
			for from, v := range msgs {
				if want := int(from)*100 + ri + 1; v != want {
					t.Fatalf("p%d round %d from %d: %v, want %d", pid, ri+1, from, v, want)
				}
			}
		}
	}
}

func TestQuickRoundProperties(t *testing.T) {
	// Property-based: arbitrary small systems and schedules keep eq. (3)
	// and deliver only genuine round emissions.
	prop := func(rawN, rawF uint8, seed int64) bool {
		n := int(rawN%5) + 3
		f := int(rawF) % ((n + 1) / 2)
		emit := func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
			return int(me)*1000 + r
		}
		out, err := RunRounds(n, f, 3, Config{Chooser: Seeded(seed)}, emit)
		if err != nil {
			return false
		}
		if predicate.PerRoundBudget(f).Check(out.Trace) != nil {
			return false
		}
		for _, views := range out.Views {
			for ri, msgs := range views {
				for from, v := range msgs {
					if v != int(from)*1000+ri+1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRoundsRejectsTooManyCrashes(t *testing.T) {
	_, err := RunRounds(4, 1, 2, Config{Crash: map[core.PID]int{0: 0, 1: 0}}, nil)
	if err == nil {
		t.Fatal("expected rejection")
	}
}
