package predicate

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestExhaustiveTracesCount(t *testing.T) {
	// n=2, rounds=1: each of the 2 processes picks D ∈ {∅,{0},{1}} —
	// 3² = 9 traces.
	count := 0
	if err := ExhaustiveTraces(2, 1, func(tr *core.Trace) error {
		count++
		if tr.N != 2 || tr.Len() != 1 {
			t.Fatalf("bad trace shape: n=%d len=%d", tr.N, tr.Len())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 9 {
		t.Fatalf("enumerated %d traces, want 9", count)
	}
	// n=3, rounds=1: 7³ = 343.
	count = 0
	if err := ExhaustiveTraces(3, 1, func(tr *core.Trace) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 343 {
		t.Fatalf("enumerated %d traces, want 343", count)
	}
}

func TestExhaustiveTracesValidation(t *testing.T) {
	if err := ExhaustiveTraces(6, 1, func(*core.Trace) error { return nil }); err == nil {
		t.Fatal("n=6 must be rejected")
	}
	if err := ExhaustiveTraces(2, 0, func(*core.Trace) error { return nil }); err == nil {
		t.Fatal("rounds=0 must be rejected")
	}
}

func TestExhaustiveImpliesProvesLattice(t *testing.T) {
	// PROOFS over the n=3, 1-round universe.
	cases := []struct {
		name string
		a, b P
	}{
		{"snapshot(1) ⇒ shared-memory(1)", AtomicSnapshot(1), SharedMemory(1)},
		{"shared-memory(1) ⇒ async-mp(1)", SharedMemory(1), PerRoundBudget(1)},
		{"eq5 ⇒ kset(1)", IdenticalSuspects(), KSetDetector(1)},
		{"snapshot(1) ⇒ kset(2)", AtomicSnapshot(1), KSetDetector(2)},
		{"kset(1) ⇒ kset(2)", KSetDetector(1), KSetDetector(2)},
	}
	for _, tc := range cases {
		checked, satisfying, err := ExhaustiveImplies(3, 1, tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if checked != 343 {
			t.Fatalf("%s: checked %d", tc.name, checked)
		}
		if satisfying == 0 {
			t.Fatalf("%s: vacuous (no trace satisfies the premise)", tc.name)
		}
	}
}

func TestExhaustiveImpliesTwoRounds(t *testing.T) {
	// Two-round proof: the crash predicate implies the omission predicate
	// over the full n=3, 2-round space (117649 traces).
	checked, satisfying, err := ExhaustiveImplies(3, 2, SyncCrash(2), SendOmission(2))
	if err != nil {
		t.Fatal(err)
	}
	if checked != 343*343 {
		t.Fatalf("checked %d", checked)
	}
	if satisfying == 0 {
		t.Fatal("vacuous premise")
	}
}

func TestExhaustiveImpliesFindsCounterexample(t *testing.T) {
	// async-mp(1) does NOT imply shared-memory: the cycle traces violate
	// eq. (4).
	_, _, err := ExhaustiveImplies(3, 1, PerRoundBudget(1), SomeoneSeenByAll())
	if err == nil {
		t.Fatal("expected a counterexample")
	}
	if !strings.Contains(err.Error(), "someone-seen-by-all") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestExhaustiveWitnessCensus(t *testing.T) {
	// Exact census of the paper's cycle observation: traces satisfying
	// no-mutual-miss + eq3(1) but violating eq. (4) over n=3, 1 round.
	// The 3-cycles are the only shape: D(0)={1},D(1)={2},D(2)={0} and the
	// reverse orientation — exactly 2 witnesses.
	checked, witnesses, err := ExhaustiveWitnesses(3, 1,
		And("nmm+eq3", PerRoundBudget(1), NoMutualMiss()), SomeoneSeenByAll())
	if err != nil {
		t.Fatal(err)
	}
	if checked != 343 {
		t.Fatalf("checked %d", checked)
	}
	if witnesses != 2 {
		t.Fatalf("witness census = %d, want exactly the 2 orientations of the 3-cycle", witnesses)
	}
}

func TestExhaustiveImpliesSendOmissionNotCrash(t *testing.T) {
	// Strictness of the §2 item 2 submodel relation, proven by census:
	// there exist 2-round omission traces that are not crash traces.
	_, witnesses, err := ExhaustiveWitnesses(3, 2, SendOmission(2), SuspicionPropagates())
	if err != nil {
		t.Fatal(err)
	}
	if witnesses == 0 {
		t.Fatal("omission must strictly contain crash")
	}
}

// exhaustiveTracesGolden is the SHA-256 of every ExhaustiveTraces(3, 2)
// trace's String() in visiting order, recorded before the walk was made
// in-place: the walk must keep visiting the same traces in the same order.
const exhaustiveTracesGolden = "d2d0f25c79315858ae33d54a76078c6286f5a6d4dadce8bfc787db45b8542098"

func TestExhaustiveTracesWalk(t *testing.T) {
	const n, rounds = 3, 2
	full, none := core.FullSet(n), core.NewSet(n)
	seen := make(map[uint32]bool)
	h := sha256.New()
	if err := ExhaustiveTraces(n, rounds, func(tr *core.Trace) error {
		if tr.N != n || tr.Len() != rounds {
			t.Fatalf("bad trace shape: n=%d len=%d", tr.N, tr.Len())
		}
		var key uint32
		for r, rec := range tr.Rounds {
			if rec.R != r+1 || !rec.Active.Equal(full) || !rec.Crashed.Equal(none) {
				t.Fatalf("round %d: R=%d active=%s crashed=%s", r+1, rec.R, rec.Active, rec.Crashed)
			}
			for i := 0; i < n; i++ {
				if !rec.Deliver[i].Equal(rec.Suspects[i].Complement()) {
					t.Fatalf("round %d: S(%d)=%s is not the complement of D=%s", r+1, i, rec.Deliver[i], rec.Suspects[i])
				}
				for p := 0; p < n; p++ {
					key <<= 1
					if rec.Suspects[i].Has(core.PID(p)) {
						key |= 1
					}
				}
			}
		}
		if seen[key] {
			t.Fatalf("trace visited twice:\n%s", tr)
		}
		seen[key] = true
		io.WriteString(h, tr.String())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 117649 {
		t.Fatalf("visited %d distinct traces, want 7^6 = 117649", len(seen))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != exhaustiveTracesGolden {
		t.Fatalf("trace sequence hash %s, want %s", got, exhaustiveTracesGolden)
	}
}
