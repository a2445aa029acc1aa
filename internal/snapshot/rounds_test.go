package snapshot

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/swmr"
)

func TestRunRoundsSatisfiesItem5Predicate(t *testing.T) {
	// §2 item 5: the snapshot round protocol's trace must satisfy
	// eq. (3) + self-inclusion + containment-ordered suspect sets.
	n, f, rounds := 5, 2, 4
	for seed := int64(0); seed < 15; seed++ {
		out, err := RunRounds(n, f, rounds, swmr.Config{Chooser: swmr.Seeded(seed)}, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Trace.Len() != rounds {
			t.Fatalf("seed %d: trace has %d rounds", seed, out.Trace.Len())
		}
		if err := hoalg.AtomicSnapshot(f).Compile().Check(out.Trace); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, out.Trace)
		}
	}
}

func TestRunRoundsDeliversMessages(t *testing.T) {
	// Each delivered value must be exactly the sender's round-r emission.
	n, f, rounds := 4, 1, 3
	emit := func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
		return int(me)*10 + r
	}
	out, err := RunRounds(n, f, rounds, swmr.Config{Chooser: swmr.Seeded(2)}, emit)
	if err != nil {
		t.Fatal(err)
	}
	for pid, views := range out.Views {
		for r, msgs := range views {
			for from, v := range msgs {
				want := int(from)*10 + (r + 1)
				if v != want {
					t.Fatalf("p%d round %d: message from %d = %v, want %d", pid, r+1, from, v, want)
				}
			}
			if _, ok := msgs[pid]; !ok {
				t.Fatalf("p%d round %d: missing own message", pid, r+1)
			}
		}
	}
}

func TestRunRoundsWithCrash(t *testing.T) {
	// With one crash (≤ f) the survivors complete all rounds and the
	// trace still satisfies the predicate.
	n, f, rounds := 4, 1, 4
	out, err := RunRounds(n, f, rounds, swmr.Config{
		Chooser: swmr.Seeded(5),
		Crash:   map[core.PID]int{3: 10},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hoalg.AtomicSnapshot(f).Compile().Check(out.Trace); err != nil {
		t.Fatalf("%v\n%s", err, out.Trace)
	}
	last := out.Trace.Round(rounds)
	if last == nil {
		t.Fatal("missing final round")
	}
	for _, p := range []core.PID{0, 1, 2} {
		if !last.Active.Has(p) {
			t.Fatalf("survivor %d did not complete round %d", p, rounds)
		}
	}
	if !out.Crashed.Has(3) {
		t.Fatal("crash not reported")
	}
}

func TestRunRoundsRejectsTooManyCrashes(t *testing.T) {
	_, err := RunRounds(4, 1, 2, swmr.Config{
		Crash: map[core.PID]int{2: 0, 3: 0},
	}, nil)
	if err == nil {
		t.Fatal("expected rejection of crashes > f")
	}
}

func TestRunRoundsFullInformationChaining(t *testing.T) {
	// The emit callback receives the previous round's messages; check the
	// chaining works by propagating and aggregating values.
	n, f, rounds := 4, 1, 2
	emit := func(me core.PID, r int, received map[core.PID]core.Value, _ core.Set) core.Value {
		if r == 1 {
			return 1
		}
		sum := 0
		for _, v := range received {
			sum += v.(int)
		}
		return sum
	}
	out, err := RunRounds(n, f, rounds, swmr.Config{Chooser: swmr.Seeded(11)}, emit)
	if err != nil {
		t.Fatal(err)
	}
	// Round-2 emissions are counts of round-1 messages received: between
	// n−f and n.
	for pid, views := range out.Views {
		if len(views) < 2 {
			t.Fatalf("p%d completed %d rounds", pid, len(views))
		}
		v := views[1][pid].(int)
		if v < n-f || v > n {
			t.Fatalf("p%d round-2 emission %d outside [%d,%d]", pid, v, n-f, n)
		}
	}
}
