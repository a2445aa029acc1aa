package agreement

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/predicate"
)

func identityInputs(n int) []core.Value {
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	return inputs
}

func TestOneRoundKSetUnderUncertaintyAdversary(t *testing.T) {
	// Theorem 3.1: under the k-set detector the algorithm decides in one
	// round with at most k distinct values, for every k and seed.
	for _, k := range []int{1, 2, 3, 4} {
		n := 10
		for seed := int64(0); seed < 40; seed++ {
			res, err := core.Run(n, identityInputs(n), OneRoundKSet(),
				adversary.KSetUncertainty(n, k, seed))
			if err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			if err := Validate(res, identityInputs(n), k, 1); err != nil {
				t.Fatalf("k=%d seed=%d: %v\n%s", k, seed, err, res.Trace)
			}
		}
	}
}

func TestOneRoundKSetConsensusUnderIdentical(t *testing.T) {
	// k = 1 (eq. 5): perfect agreement in one round.
	n := 8
	for seed := int64(0); seed < 30; seed++ {
		res, err := core.Run(n, identityInputs(n), OneRoundKSet(),
			adversary.Identical(n, seed))
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(res, identityInputs(n), 1, 1); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestOneRoundKSetUnderSnapshotAdversary(t *testing.T) {
	// Corollary 3.2: the atomic-snapshot RRFD with f = k−1 failures
	// implies the k-set detector, so one round suffices.
	n := 9
	for _, k := range []int{1, 2, 4} {
		f := k - 1
		for seed := int64(0); seed < 25; seed++ {
			res, err := core.Run(n, identityInputs(n), OneRoundKSet(),
				adversary.SnapshotChain(n, f, seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(res, identityInputs(n), k, 1); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
		}
	}
}

func TestSnapshotPredicateImpliesKSetDetector(t *testing.T) {
	// The predicate-level content of Corollary 3.2: item 5 with f = k−1
	// implies the §3 detector predicate.
	for _, k := range []int{1, 2, 3} {
		gen := func(seed int64) (*core.Trace, error) {
			return core.CollectTrace(8, 6, adversary.SnapshotChain(8, k-1, seed))
		}
		if err := predicate.Implies(gen, hoalg.AtomicSnapshot(k-1).Compile(), hoalg.KSetEq3(k).Compile(), 80); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestOneRoundKSetExhaustiveProof(t *testing.T) {
	// PROOF of Theorem 3.1 for tiny universes: enumerate EVERY 1-round
	// detector behaviour satisfying the predicate and run the algorithm
	// against it. A pass is the theorem for that universe.
	cases := []struct{ n, k int }{
		{3, 1}, {3, 2}, {4, 1}, {4, 2}, {4, 3},
	}
	for _, tc := range cases {
		pred := hoalg.KSetEq3(tc.k).Compile()
		checked, satisfying := 0, 0
		err := predicate.ExhaustiveTraces(tc.n, 1, func(tr *core.Trace) error {
			checked++
			if pred.Check(tr) != nil {
				return nil
			}
			satisfying++
			res, err := core.Run(tc.n, identityInputs(tc.n), OneRoundKSet(),
				core.TraceOracle(tr), core.WithoutTrace())
			if err != nil {
				return err
			}
			return Validate(res, identityInputs(tc.n), tc.k, 1)
		})
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if satisfying == 0 {
			t.Fatalf("n=%d k=%d: vacuous", tc.n, tc.k)
		}
		t.Logf("n=%d k=%d: theorem verified on %d/%d traces", tc.n, tc.k, satisfying, checked)
	}
}

func TestFloodMinUnderCrashAdversary(t *testing.T) {
	// FloodMin with rounds = ⌊f/k⌋+1 solves k-set agreement under the
	// synchronous crash model.
	cases := []struct{ n, f, k int }{
		{6, 3, 1}, // consensus, 4 rounds
		{8, 4, 2}, // 3 rounds
		{10, 6, 3},
		{5, 0, 1}, // failure-free: 1 round
	}
	for _, tc := range cases {
		rounds := tc.f/tc.k + 1
		for seed := int64(0); seed < 30; seed++ {
			res, err := core.Run(tc.n, identityInputs(tc.n), FloodMin(rounds),
				adversary.Crash(tc.n, tc.f, seed))
			if err != nil {
				t.Fatalf("%+v seed=%d: %v", tc, seed, err)
			}
			if err := Validate(res, identityInputs(tc.n), tc.k, rounds); err != nil {
				t.Fatalf("%+v seed=%d: %v", tc, seed, err)
			}
		}
	}
}

func TestFloodMinMeetsLowerBoundExactly(t *testing.T) {
	// Tightness (Corollary 4.2/4.4): ⌊f/k⌋+1 rounds succeed even against
	// the chain adversary...
	n, f, k := 10, 4, 2
	rounds := f/k + 1
	res, err := core.Run(n, identityInputs(n), FloodMin(rounds), adversary.ChainCrash(n, f, k))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res, identityInputs(n), k, rounds); err != nil {
		t.Fatal(err)
	}
}

func TestFloodMinTruncatedViolatesKAgreement(t *testing.T) {
	// ...while ⌊f/k⌋ rounds fail: the chain adversary hides values
	// 0..k−1 at k distinct processes while everyone else holds k, so a
	// truncated algorithm outputs k+1 distinct values. This is the
	// empirical witness of the synchronous lower bound.
	n, f, k := 10, 4, 2
	m := f / k
	res, err := core.Run(n, identityInputs(n), FloodMin(m), adversary.ChainCrash(n, f, k))
	if err != nil {
		t.Fatal(err)
	}
	err = Validate(res, identityInputs(n), k, m)
	if err == nil {
		t.Fatalf("truncated FloodMin unexpectedly solved %d-set agreement: %v", k, res.Outputs)
	}
	if !strings.Contains(err.Error(), "distinct decisions") {
		t.Fatalf("violation should be k-agreement, got: %v", err)
	}
	if got := res.DistinctOutputs(); got != k+1 {
		t.Fatalf("distinct outputs = %d, want exactly k+1 = %d", got, k+1)
	}
}

func TestFloodMinConsensusLowerBound(t *testing.T) {
	// The k = 1 special case: FLP-style bound of Fischer–Lynch — f+1
	// rounds needed, f insufficient.
	n, f := 8, 3
	res, err := core.Run(n, identityInputs(n), FloodMin(f+1), adversary.ChainCrash(n, f, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res, identityInputs(n), 1, f+1); err != nil {
		t.Fatal(err)
	}
	res, err = core.Run(n, identityInputs(n), FloodMin(f), adversary.ChainCrash(n, f, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res, identityInputs(n), 1, f); err == nil {
		t.Fatal("f rounds should not suffice for consensus with f crash faults")
	}
}

func TestOstracismSubtlety(t *testing.T) {
	// A modeling point the framework makes concrete: consider the
	// "ostracism" adversary — a live process (here p0, holding the unique
	// minimum) is suspected by everyone forever while itself seeing a
	// perfect world. FloodMin then splits: p0 decides 0, everyone else
	// decides 1.
	//
	// (a) The CRASH predicate forbids this: eq. (2) forces p0 into
	//     everyone's round-2 suspect set INCLUDING ITS OWN, which eq. (1)
	//     (self-trust) forbids unless p0 actually stops — the predicate
	//     conjunction encodes real crashes, and crashed processes have no
	//     output, so FloodMin stays safe under the bare predicate.
	//
	// (b) The OMISSION predicate allows it: the ostracized process is a
	//     faulty SENDER, and the omission task semantics exempt faulty
	//     processes from agreement — the same move Corollary 4.4 makes
	//     when it voids "committed to p_i faulty" outputs.
	n, f := 3, 1
	oracle := core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		return core.RoundPlan{Suspects: []core.Set{
			core.NewSet(n),   // p0 sees everyone
			core.SetOf(n, 0), // p1 never hears p0
			core.SetOf(n, 0), // p2 never hears p0
		}}
	})
	res, err := core.Run(n, identityInputs(n), FloodMin(f+1), oracle)
	if err != nil {
		t.Fatal(err)
	}

	// (a) Illegal as a crash execution, for exactly the self-trust
	// reason.
	err = hoalg.SyncCrash(f).Compile().Check(res.Trace)
	if err == nil {
		t.Fatal("ostracism with a live victim must violate the crash predicate")
	}
	if !strings.Contains(err.Error(), `predicate "propagates" violated`) {
		t.Fatalf("violation should be the propagation clause: %v", err)
	}

	// (b) Legal as an omission execution, with the expected split.
	if err := hoalg.SendOmission(f).Compile().Check(res.Trace); err != nil {
		t.Fatalf("the trace is a legal send-omission execution: %v", err)
	}
	if got := res.DistinctOutputs(); got != 2 {
		t.Fatalf("distinct = %d, want the 2 that make the point", got)
	}
	// The faulty (ever-suspected) process is exactly p0; exempting it
	// restores agreement.
	faulty := res.Trace.CumulativeSuspects(res.Trace.Len())
	if !faulty.Equal(core.SetOf(n, 0)) {
		t.Fatalf("faulty = %s", faulty)
	}
	counted := make(map[core.Value]bool)
	for p, v := range res.Outputs {
		if !faulty.Has(p) {
			counted[v] = true
		}
	}
	if len(counted) != 1 {
		t.Fatalf("correct processes disagree: %v", res.Outputs)
	}

	// The crash-legal variant: p0 really crashes at round 2; the
	// predicate is satisfied and all DECIDING processes agree.
	crashing := core.OracleFunc(func(r int, active core.Set) core.RoundPlan {
		sus := make([]core.Set, n)
		crashes := core.NewSet(n)
		for i := range sus {
			sus[i] = core.NewSet(n)
			if r >= 1 && i != 0 {
				sus[i].Add(0)
			}
			if r >= 2 {
				sus[i].Add(0)
			}
		}
		if r >= 2 {
			crashes.Add(0)
			sus[0] = core.NewSet(n) // p0 is dead; entry unused
		}
		return core.RoundPlan{Suspects: sus, Crashes: crashes}
	})
	res2, err := core.Run(n, identityInputs(n), FloodMin(f+1), crashing)
	if err != nil {
		t.Fatal(err)
	}
	if err := hoalg.SyncCrash(f).Compile().Check(res2.Trace); err != nil {
		t.Fatal(err)
	}
	if err := Validate(res2, identityInputs(n), 1, f+1); err != nil {
		t.Fatal(err)
	}
}

func TestRotatingCoordinatorUnderS(t *testing.T) {
	// §2 item 6: with some process never suspected, consensus is solvable
	// wait-free in n rounds.
	n := 7
	for spare := core.PID(0); spare < core.PID(n); spare++ {
		for seed := int64(0); seed < 15; seed++ {
			res, err := core.Run(n, identityInputs(n), RotatingCoordinator(),
				adversary.SpareNeverSuspected(n, spare, seed))
			if err != nil {
				t.Fatalf("spare=%d seed=%d: %v", spare, seed, err)
			}
			if err := Validate(res, identityInputs(n), 1, n); err != nil {
				t.Fatalf("spare=%d seed=%d: %v", spare, seed, err)
			}
		}
	}
}

func TestRotatingCoordinatorBenign(t *testing.T) {
	n := 5
	res, err := core.Run(n, identityInputs(n), RotatingCoordinator(), adversary.Benign(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res, identityInputs(n), 1, n); err != nil {
		t.Fatal(err)
	}
	// Failure-free run adopts coordinator p0's value.
	for p, v := range res.Outputs {
		if v != 0 {
			t.Fatalf("process %d decided %v, want 0", p, v)
		}
	}
}

func TestValidateCatchesBadOutputs(t *testing.T) {
	inputs := identityInputs(3)
	res := &core.Result{
		Outputs:   map[core.PID]core.Value{0: 99},
		DecidedAt: map[core.PID]int{0: 1, 1: 1, 2: 1},
		Crashed:   core.NewSet(3),
	}
	if err := Validate(res, inputs, 1, 0); err == nil {
		t.Fatal("non-input output must fail validity")
	}
	res2 := &core.Result{
		Outputs:   map[core.PID]core.Value{0: 0, 1: 1},
		DecidedAt: map[core.PID]int{0: 1, 1: 1, 2: 1},
		Crashed:   core.NewSet(3),
	}
	if err := Validate(res2, inputs, 1, 0); err == nil {
		t.Fatal("two outputs must fail 1-agreement")
	}
	res3 := &core.Result{
		Outputs:   map[core.PID]core.Value{0: 0},
		DecidedAt: map[core.PID]int{0: 1},
		Crashed:   core.NewSet(3),
	}
	if err := Validate(res3, inputs, 1, 0); err == nil {
		t.Fatal("non-terminating live process must fail")
	}
	res4 := &core.Result{
		Outputs:   map[core.PID]core.Value{0: 0, 1: 0, 2: 0},
		DecidedAt: map[core.PID]int{0: 5, 1: 1, 2: 1},
		Crashed:   core.NewSet(3),
	}
	if err := Validate(res4, inputs, 1, 3); err == nil {
		t.Fatal("late decision must fail the round bound")
	}
}

// TestValidateWording pins Validate's error strings: its prefix and process
// around the verdict's sentence, and its own round bound.
func TestValidateWording(t *testing.T) {
	in := identityInputs(3)
	round1 := map[core.PID]int{0: 1, 1: 1, 2: 1}
	for _, tc := range []struct {
		res      core.Result
		maxRound int
		want     string
	}{
		{core.Result{Outputs: map[core.PID]core.Value{0: 0, 1: 1, 2: 2}, DecidedAt: round1}, 0,
			"agreement: 3 distinct decisions [0 1 2] exceed k=2"},
		{core.Result{Outputs: map[core.PID]core.Value{0: 0, 1: 7, 2: 0}, DecidedAt: round1}, 0,
			"agreement: process 1 decided 7, not an input"},
		{core.Result{Outputs: map[core.PID]core.Value{0: 0, 1: 7, 2: 8}, DecidedAt: round1}, 0,
			"agreement: process 1 decided 7, not an input"},
		{core.Result{Outputs: map[core.PID]core.Value{0: 0, 1: 0}, DecidedAt: map[core.PID]int{0: 1, 1: 1}}, 0,
			"agreement: process 2 did not decide"},
		{core.Result{Outputs: map[core.PID]core.Value{0: 0, 1: 0, 2: 0}, DecidedAt: map[core.PID]int{0: 1, 1: 3, 2: 1}}, 2,
			"agreement: decision at round 3, want ≤ 2"},
	} {
		tc.res.Crashed = core.NewSet(3)
		if err := Validate(&tc.res, in, 2, tc.maxRound); err == nil || err.Error() != tc.want {
			t.Errorf("Validate = %v, want %s", err, tc.want)
		}
	}
	crashed := core.Result{Outputs: map[core.PID]core.Value{0: 0, 1: 0}, DecidedAt: map[core.PID]int{0: 1, 1: 1}, Crashed: core.SetOf(3, 2)}
	if err := Validate(&crashed, in, 2, 0); err != nil {
		t.Errorf("a crashed process must be exempt from termination: %v", err)
	}
}
