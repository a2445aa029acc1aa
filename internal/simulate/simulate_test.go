package simulate

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/msgnet"
)

func TestTwoRoundsToSharedMemory(t *testing.T) {
	// §2 item 4: any eq.-3 execution with 2f < n, taken two rounds at a
	// time, induces a shared-memory execution (eqs. 3+4).
	n, f := 7, 3 // 2f < n
	for seed := int64(0); seed < 40; seed++ {
		base, err := core.CollectTrace(n, 8, adversary.AsyncBudget(n, f, false, seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := hoalg.PerRound(f).Compile().Check(base); err != nil {
			t.Fatalf("base trace broken: %v", err)
		}
		sim, err := TwoRoundsToSharedMemory(base)
		if err != nil {
			t.Fatal(err)
		}
		if sim.Len() != 4 {
			t.Fatalf("simulated %d rounds, want 4", sim.Len())
		}
		if err := hoalg.SharedMemory(f).Compile().Check(sim); err != nil {
			t.Fatalf("seed %d: %v\nbase:\n%s\nsim:\n%s", seed, err, base, sim)
		}
	}
}

func TestTwoRoundsToSharedMemoryOnRealNetwork(t *testing.T) {
	// The same construction driven by the operational message-passing
	// substrate rather than an abstract adversary.
	n, f := 5, 2
	for seed := int64(0); seed < 15; seed++ {
		out, err := msgnet.RunRounds(n, f, 6, msgnet.Config{Chooser: core.Seeded(seed)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := TwoRoundsToSharedMemory(out.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if err := hoalg.SharedMemory(f).Compile().Check(sim); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestTwoRoundsRequiresEvenLength(t *testing.T) {
	base, err := core.CollectTrace(4, 3, adversary.Benign(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TwoRoundsToSharedMemory(base); err == nil {
		t.Fatal("odd-length trace must be rejected")
	}
}

func TestBToA(t *testing.T) {
	// §2 item 3: two rounds of the B system implement one round of the
	// f-budget system A.
	n, f, tt := 9, 2, 4 // f < t, 2t < n
	for seed := int64(0); seed < 40; seed++ {
		base, err := core.CollectTrace(n, 8, adversary.BSystemOracle(n, f, tt, seed))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := BToA(base, f)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := hoalg.PerRound(f).Compile().Check(sim); err != nil {
			t.Fatalf("seed %d: simulated trace breaks eq3: %v", seed, err)
		}
	}
}

func TestBToAIsStrict(t *testing.T) {
	// A is a STRICT submodel of B: B executions themselves may break the
	// f budget (cf. adversary tests), yet after the simulation they fit.
	n, f, tt := 9, 2, 4
	broken := 0
	for seed := int64(0); seed < 40; seed++ {
		base, err := core.CollectTrace(n, 8, adversary.BSystemOracle(n, f, tt, seed))
		if err != nil {
			t.Fatal(err)
		}
		if hoalg.PerRound(f).Compile().Check(base) != nil {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("B adversary never exceeded the f budget — separation untested")
	}
}

func TestOmissionPrefixTheorem41(t *testing.T) {
	// Theorem 4.1: the first ⌊f/k⌋ rounds of an atomic-snapshot RRFD
	// execution with budget k satisfy the send-omission predicate with
	// budget f.
	cases := []struct{ n, f, k int }{
		{8, 4, 2},
		{8, 5, 2}, // ⌊5/2⌋ = 2 rounds
		{6, 3, 1},
		{10, 6, 3},
	}
	for _, tc := range cases {
		rounds := tc.f/tc.k + 2 // collect more than needed
		for seed := int64(0); seed < 20; seed++ {
			base, err := core.CollectTrace(tc.n, rounds, adversary.SnapshotChain(tc.n, tc.k, seed))
			if err != nil {
				t.Fatal(err)
			}
			sim, err := OmissionPrefix(base, tc.f, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if sim.Len() != tc.f/tc.k {
				t.Fatalf("prefix has %d rounds, want %d", sim.Len(), tc.f/tc.k)
			}
			if err := hoalg.SendOmission(tc.f).Compile().Check(sim); err != nil {
				t.Fatalf("%+v seed %d: %v", tc, seed, err)
			}
		}
	}
}

func TestOmissionPrefixValidation(t *testing.T) {
	base, err := core.CollectTrace(4, 2, adversary.Benign(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OmissionPrefix(base, 1, 2); err == nil {
		t.Fatal("f < k must be rejected")
	}
	if _, err := OmissionPrefix(base, 0, 0); err == nil {
		t.Fatal("k = 0 must be rejected")
	}
	if _, err := OmissionPrefix(base, 9, 3); err == nil {
		t.Fatal("short trace must be rejected")
	}
}
