package adversary

import (
	"testing"

	"repro/internal/core"
	"repro/internal/predicate"
)

// checkAdversary collects a trace from the oracle and validates it against
// the predicate it is supposed to satisfy.
func checkAdversary(t *testing.T, n, rounds int, oracle core.Oracle, p predicate.P) *core.Trace {
	t.Helper()
	tr, err := core.CollectTrace(n, rounds, oracle)
	if err != nil {
		t.Fatalf("collect trace: %v", err)
	}
	if tr.Len() != rounds {
		t.Fatalf("trace has %d rounds, want %d", tr.Len(), rounds)
	}
	if err := p.Check(tr); err != nil {
		t.Fatalf("adversary violates its own predicate: %v\n%s", err, tr)
	}
	return tr
}

func TestBenignSatisfiesEverything(t *testing.T) {
	n := 6
	oracle := Benign(n)
	for _, p := range []predicate.P{
		predicate.SendOmission(0),
		predicate.SyncCrash(0),
		predicate.PerRoundBudget(0),
		predicate.SharedMemory(0),
		predicate.AtomicSnapshot(0),
		predicate.NeverSuspectedExists(),
		predicate.KSetDetector(1),
		predicate.IdenticalSuspects(),
	} {
		checkAdversary(t, n, 5, oracle, p)
	}
}

func TestOmissionSatisfiesEq1(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		checkAdversary(t, 8, 10, Omission(8, 3, 0.7, seed), predicate.SendOmission(3))
	}
}

func TestOmissionIsHostile(t *testing.T) {
	// With rate 1 and f ≥ 1 some suspicion must actually occur.
	tr := checkAdversary(t, 6, 6, Omission(6, 2, 1.0, 1), predicate.SendOmission(2))
	if tr.CumulativeSuspects(tr.Len()).Empty() {
		t.Fatal("fully hostile omission adversary never suspected anyone")
	}
}

func TestCrashSatisfiesSyncCrash(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		checkAdversary(t, 8, 12, Crash(8, 3, seed), predicate.SyncCrash(3))
	}
}

func TestCrashIsSubmodelOfOmission(t *testing.T) {
	// §2 item 2: the crash model predicate implies the omission predicate.
	for seed := int64(0); seed < 20; seed++ {
		checkAdversary(t, 8, 12, Crash(8, 3, seed), predicate.SendOmission(3))
	}
}

func TestChainCrashSatisfiesSyncCrash(t *testing.T) {
	n, f, k := 10, 4, 2 // m = 2, chains need k·(m+1)+1 = 7 ≤ n
	checkAdversary(t, n, f/k+2, ChainCrash(n, f, k), predicate.SyncCrash(f))
}

func TestChainCrashHidesValues(t *testing.T) {
	// After m rounds, value-j chains must leave exactly one live process
	// having received the chain: verify the delivery pattern directly.
	n, f, k := 10, 4, 2
	m := f / k
	tr, err := core.CollectTrace(n, m+1, ChainCrash(n, f, k))
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= m; r++ {
		rec := tr.Round(r)
		for j := 0; j < k; j++ {
			holder := core.PID(k*(r-1) + j)
			next := core.PID(k*r + j)
			got := 0
			rec.Active.ForEach(func(i core.PID) {
				if i != holder && rec.Deliver[i].Has(holder) {
					got++
					if i != next {
						t.Errorf("round %d: chain %d holder reached %d, want only %d", r, j, i, next)
					}
				}
			})
			if got != 1 {
				t.Errorf("round %d: chain %d holder reached %d processes, want 1", r, j, got)
			}
		}
	}
}

func TestAsyncBudgetSatisfiesEq3(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		checkAdversary(t, 8, 10, AsyncBudget(8, 3, true, seed), predicate.PerRoundBudget(3))
	}
}

func TestAsyncBudgetCanViolateSharedMemory(t *testing.T) {
	// §2 item 4: eq. (3) alone does not give eq. (4). Find a round where
	// everyone is suspected by someone.
	_, err := predicate.Separates(func(seed int64) (*core.Trace, error) {
		return core.CollectTrace(6, 10, AsyncBudget(6, 5, true, seed))
	}, predicate.PerRoundBudget(5), predicate.SomeoneSeenByAll(), 200)
	if err != nil {
		t.Fatalf("expected separation between eq3 and eq4: %v", err)
	}
}

func TestSharedMemSatisfiesEq3And4(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		checkAdversary(t, 8, 10, SharedMem(8, 5, seed), predicate.SharedMemory(5))
	}
}

func TestSnapshotChainSatisfiesItem5(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		checkAdversary(t, 8, 10, SnapshotChain(8, 3, seed), predicate.AtomicSnapshot(3))
	}
}

func TestSnapshotImpliesSharedMemory(t *testing.T) {
	// §2 item 5 ⊑ item 4 (for the same f, when f < n−1 the suffix
	// structure leaves the first writer unsuspected).
	gen := func(seed int64) (*core.Trace, error) {
		return core.CollectTrace(8, 8, SnapshotChain(8, 3, seed))
	}
	if err := predicate.Implies(gen, predicate.AtomicSnapshot(3), predicate.SharedMemory(3), 100); err != nil {
		t.Fatal(err)
	}
}

func TestBSystemOracleSatisfiesItsPredicate(t *testing.T) {
	n, f, tt := 9, 2, 4 // f < t, 2t < n
	for seed := int64(0); seed < 20; seed++ {
		checkAdversary(t, n, 10, BSystemOracle(n, f, tt, seed), predicate.BSystem(f, tt))
	}
}

func TestBSystemViolatesEq3(t *testing.T) {
	// B is strictly weaker than A = eq. (3) with budget f: some process
	// should exceed the f budget at some round.
	n, f, tt := 9, 2, 4
	_, err := predicate.Separates(func(seed int64) (*core.Trace, error) {
		return core.CollectTrace(n, 10, BSystemOracle(n, f, tt, seed))
	}, predicate.BSystem(f, tt), predicate.PerRoundBudget(f), 200)
	if err != nil {
		t.Fatalf("expected B to break eq3's f budget: %v", err)
	}
}

func TestNoMutualMissOracle(t *testing.T) {
	n, f := 7, 3
	for seed := int64(0); seed < 20; seed++ {
		checkAdversary(t, n, 8, NoMutualMissOracle(n, f, seed),
			predicate.And("no-mutual-miss-system", predicate.PerRoundBudget(f), predicate.NoMutualMiss()))
	}
}

func TestNoMutualMissCanViolateEq4(t *testing.T) {
	// The paper's cycle observation: no-mutual-miss does not imply
	// eq. (4).
	n, f := 7, 3
	gen := func(seed int64) (*core.Trace, error) {
		return core.CollectTrace(n, 8, NoMutualMissOracle(n, f, seed))
	}
	if _, err := predicate.Separates(gen, predicate.NoMutualMiss(), predicate.SomeoneSeenByAll(), 200); err != nil {
		t.Fatalf("expected a cycle execution violating eq4: %v", err)
	}
}

func TestKSetUncertaintySatisfiesDetector(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		for seed := int64(0); seed < 10; seed++ {
			checkAdversary(t, 10, 8, KSetUncertainty(10, k, seed), predicate.KSetDetector(k))
		}
	}
}

func TestIdenticalSatisfiesEq5(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		checkAdversary(t, 8, 10, Identical(8, seed), predicate.IdenticalSuspects())
	}
}

func TestIdenticalImpliesK1Detector(t *testing.T) {
	// §5: eq. (5) is the k=1 instance of the §3 detector.
	gen := func(seed int64) (*core.Trace, error) {
		return core.CollectTrace(8, 8, Identical(8, seed))
	}
	if err := predicate.Implies(gen, predicate.IdenticalSuspects(), predicate.KSetDetector(1), 100); err != nil {
		t.Fatal(err)
	}
}

func TestSpareNeverSuspected(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tr := checkAdversary(t, 8, 10, SpareNeverSuspected(8, 5, seed), predicate.NeverSuspectedExists())
		if !tr.NeverSuspected().Has(5) {
			t.Fatalf("spare process 5 was suspected: never-suspected = %s", tr.NeverSuspected())
		}
	}
}

func TestOrderedBlocksSatisfiesIISClauses(t *testing.T) {
	n := 7
	for seed := int64(0); seed < 20; seed++ {
		checkAdversary(t, n, 6, OrderedBlocks(n, seed), predicate.And("iis-clauses",
			predicate.SelfIncluded(), predicate.ContainmentChain(), predicate.NoMutualMiss()))
	}
}

func TestEventuallySpareContract(t *testing.T) {
	n, f, stab := 6, 2, 4
	for seed := int64(0); seed < 20; seed++ {
		tr := checkAdversary(t, n, 10, EventuallySpare(n, f, stab, 3, seed),
			predicate.PerRoundBudget(f))
		// After stabilization the spare is clean...
		for r := stab + 1; r <= tr.Len(); r++ {
			if tr.SuspectUnion(r).Has(3) {
				t.Fatalf("seed %d: spare suspected at round %d > stab", seed, r)
			}
		}
	}
	// ...and before it, some seed must suspect the spare (otherwise the
	// "eventual" part is vacuous).
	suspectedEarly := false
	for seed := int64(0); seed < 30 && !suspectedEarly; seed++ {
		tr, err := core.CollectTrace(n, stab, EventuallySpare(n, f, stab, 3, seed))
		if err != nil {
			t.Fatal(err)
		}
		if tr.CumulativeSuspects(stab).Has(3) {
			suspectedEarly = true
		}
	}
	if !suspectedEarly {
		t.Fatal("spare never suspected before stabilization across 30 seeds")
	}
}

func TestDeterminism(t *testing.T) {
	// Same seed, same trace.
	a, err := core.CollectTrace(8, 10, AsyncBudget(8, 3, true, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.CollectTrace(8, 10, AsyncBudget(8, 3, true, 7))
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 10; r++ {
		ra, rb := a.Round(r), b.Round(r)
		for i := 0; i < 8; i++ {
			if !ra.Suspects[i].Equal(rb.Suspects[i]) {
				t.Fatalf("round %d process %d differs across identical seeds", r, i)
			}
		}
	}
}
