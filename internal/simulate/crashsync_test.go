package simulate

import (
	"testing"

	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/swmr"
)

func identityInputs(n int) []core.Value {
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	return inputs
}

func TestCrashSyncTraceSatisfiesSyncCrash(t *testing.T) {
	// Theorem 4.3's soundness: the simulated execution is a legal
	// execution of the synchronous crash model with budget f.
	n, f, k := 6, 4, 2 // 2 simulated rounds
	rounds := f / k
	for seed := int64(0); seed < 15; seed++ {
		res, err := CrashSync(n, f, k, rounds, swmr.Config{Chooser: swmr.Seeded(seed)},
			agreement.FloodMin(rounds), identityInputs(n))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := hoalg.SyncCrash(f).Compile().Check(res.Result.Trace); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, res.Result.Trace)
		}
	}
}

func TestCrashSyncWithRealCrashes(t *testing.T) {
	n, f, k := 6, 4, 2
	rounds := f / k
	for seed := int64(0); seed < 10; seed++ {
		res, err := CrashSync(n, f, k, rounds, swmr.Config{
			Chooser: swmr.Seeded(seed),
			Crash:   map[core.PID]int{5: 20, 4: 45},
		}, agreement.FloodMin(rounds), identityInputs(n))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := hoalg.SyncCrash(f).Compile().Check(res.Result.Trace); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, res.Result.Trace)
		}
		if !res.RealCrashes.Equal(core.SetOf(n, 4, 5)) {
			t.Fatalf("seed %d: real crashes = %s", seed, res.RealCrashes)
		}
	}
}

func TestCrashSyncFloodMinIsKPlusOneCorrect(t *testing.T) {
	// FloodMin over R rounds with ≤ k·R faults guarantees at most k+1
	// distinct decisions; the simulation must preserve that.
	n, f, k := 6, 4, 2
	rounds := f / k
	for seed := int64(0); seed < 20; seed++ {
		res, err := CrashSync(n, f, k, rounds, swmr.Config{Chooser: swmr.Seeded(seed)},
			agreement.FloodMin(rounds), identityInputs(n))
		if err != nil {
			t.Fatal(err)
		}
		if err := agreement.Validate(res.Result, identityInputs(n), k+1, rounds); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Adopted values (Corollary 4.4's last step) must be actual
		// decisions of live processes.
		decisions := make(map[core.Value]bool)
		for _, v := range res.Result.Outputs {
			decisions[v] = true
		}
		for pid, v := range res.Adopted {
			if !decisions[v] {
				t.Fatalf("seed %d: process %d adopted %v which nobody decided", seed, pid, v)
			}
		}
	}
}

func TestCrashSyncLowerBoundWitness(t *testing.T) {
	// Corollary 4.4's content: NO ⌊f/k⌋-round k-set algorithm can be
	// correct, because the simulation would yield an asynchronous
	// k-resilient k-set algorithm, contradicting Borowsky–Gafni /
	// Herlihy–Shavit / Saks–Zaharoglou. Concrete witness: n=4, f=k=2
	// (one simulated round), FloodMin truncated to 1 round, under the
	// staircase schedule that runs {p2,p3} to completion, then p1, then
	// p0. p2,p3 commit {0,1} faulty and decide 2; p1 misses only p0 and
	// decides 1; p0 sees everyone and decides 0 — three distinct values,
	// breaking 2-set agreement without a single real crash.
	n, f, k := 4, 2, 2
	rounds := f / k // 1
	chooser := core.PriorityGroups(
		[]core.PID{2, 3},
		[]core.PID{1},
		[]core.PID{0},
	)
	res, err := CrashSync(n, f, k, rounds, swmr.Config{Chooser: chooser},
		agreement.FloodMin(rounds), identityInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	// The simulation itself must still be sound...
	if err := hoalg.SyncCrash(f).Compile().Check(res.Result.Trace); err != nil {
		t.Fatalf("witness trace is not a legal sync-crash execution: %v\n%s", err, res.Result.Trace)
	}
	if !res.RealCrashes.Empty() {
		t.Fatalf("witness needs no real crashes, got %s", res.RealCrashes)
	}
	// ...but the truncated algorithm must break k-agreement.
	if got := res.Result.DistinctOutputs(); got != k+1 {
		t.Fatalf("distinct outputs = %d (%v), want k+1 = %d", got, res.Result.Outputs, k+1)
	}
}

func TestCrashSyncCostIsThreeAsyncRoundsPerSyncRound(t *testing.T) {
	// The paper's accounting: one snapshot round plus one adopt-commit
	// (two async rounds) per simulated round. We check the operation
	// count grows linearly in rounds with the n² adopt-commit factor.
	n, k := 5, 2
	r1, err := CrashSync(n, 2, k, 1, swmr.Config{Chooser: swmr.Seeded(1)},
		agreement.FloodMin(1), identityInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := CrashSync(n, 4, k, 2, swmr.Config{Chooser: swmr.Seeded(1)},
		agreement.FloodMin(2), identityInputs(n))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Steps <= r1.Steps {
		t.Fatalf("2-round simulation (%d steps) not costlier than 1-round (%d)", r2.Steps, r1.Steps)
	}
	// Adopt-commit alone costs n·(2n+2) ops per simulated round.
	if perRound := r2.Steps - r1.Steps; perRound < n*(2*n+2) {
		t.Fatalf("per-round cost %d below the adopt-commit floor %d", perRound, n*(2*n+2))
	}
}

func TestCrashSyncValidation(t *testing.T) {
	inputs := identityInputs(4)
	if _, err := CrashSync(4, 1, 2, 0, swmr.Config{}, agreement.FloodMin(1), inputs); err == nil {
		t.Fatal("f < k must be rejected")
	}
	if _, err := CrashSync(4, 4, 2, 5, swmr.Config{}, agreement.FloodMin(5), inputs); err == nil {
		t.Fatal("rounds beyond ⌊f/k⌋ must be rejected")
	}
	if _, err := CrashSync(4, 4, 2, 1, swmr.Config{
		Crash: map[core.PID]int{0: 0, 1: 0, 2: 0},
	}, agreement.FloodMin(1), inputs); err == nil {
		t.Fatal("more than k real crashes must be rejected")
	}
	if _, err := CrashSync(4, 2, 1, 1, swmr.Config{}, agreement.FloodMin(1), identityInputs(3)); err == nil {
		t.Fatal("input length mismatch must be rejected")
	}
}
