package adversary_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/mc"
	"repro/internal/predicate"
)

// explored runs an exhaustive exploration of FloodMin(rounds) under the
// given enumeration, checking that every explored trace satisfies the
// model predicate the enumeration claims to implement.
func explored(t *testing.T, n, rounds int, enum hoalg.Enum, p predicate.P) *mc.Result {
	t.Helper()
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	res, err := mc.Explore(mc.Options{}, mc.CheckRun(mc.RunSpec{
		N:       n,
		Inputs:  inputs,
		Factory: agreement.FloodMin(rounds),
		Oracle: func(ctx *mc.Ctx) core.Oracle {
			return adversary.Enumerated(ctx, n, enum)
		},
		Props: []mc.Property{mc.TraceSatisfies(p)},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample != nil {
		t.Fatalf("enumeration left its model: %v", res.Counterexample)
	}
	if !res.Exhausted {
		t.Fatalf("exploration not exhausted: %+v", res)
	}
	return res
}

func TestEnumPerRoundBudgetInModel(t *testing.T) {
	enum, err := adversary.EnumPerRoundBudget(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := explored(t, 3, 2, enum, predicate.PerRoundBudget(1))
	// Round 1 and round 2 each offer 3^3 = 27 plans (each process misses
	// at most one of the other two: 3 choices each).
	if res.Schedules != 27*27 {
		t.Fatalf("schedules = %d, want 729", res.Schedules)
	}
}

func TestEnumSendOmissionInModel(t *testing.T) {
	enum, err := adversary.EnumSendOmission(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	explored(t, 3, 2, enum, predicate.SendOmission(1))
}

func TestEnumSyncCrashInModel(t *testing.T) {
	enum, err := adversary.EnumSyncCrash(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	explored(t, 3, 2, enum, predicate.SyncCrash(1))
}

func TestEnumKSetInModel(t *testing.T) {
	enum, err := adversary.EnumKSet(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	explored(t, 3, 1, enum, predicate.KSetDetector(2))
}

func TestEnumGuards(t *testing.T) {
	if _, err := adversary.EnumPerRoundBudget(5, 1); err == nil {
		t.Fatal("per-round-budget n=5 should be rejected")
	}
	if _, err := adversary.EnumKSet(4, 2); err == nil {
		t.Fatal("k-set n=4 should be rejected")
	}
	if _, err := adversary.EnumSendOmission(0, 1); err == nil {
		t.Fatal("n=0 should be rejected")
	}
	if _, err := adversary.EnumSyncCrash(5, 1); err == nil {
		t.Fatal("sync-crash n=5 should be rejected")
	}
}

// TestEnumSyncCrashPropagation: a process suspected in round r must be in
// everyone's round-r+1 suspect set (eq. (2)); spot-check the enumeration
// produces crashing plans at all, not just the all-trusting one.
func TestEnumSyncCrashProducesCrashes(t *testing.T) {
	enum, err := adversary.EnumSyncCrash(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	active := core.NewSet(3)
	for p := 0; p < 3; p++ {
		active.Add(core.PID(p))
	}
	prev := core.NewSet(3)
	prev.Add(0)
	sus := core.NewSet(3)
	sus.Add(0)
	plans := enum(hoalg.EnumState{R: 2, Active: active, Suspected: sus, PrevUnion: prev}).Plans
	if len(plans) == 0 {
		t.Fatal("no plans for a round with a pending crash")
	}
	for _, pl := range plans {
		if !pl.Crashes.Has(0) {
			t.Fatalf("suspected process 0 not crashed in follow-up round: %+v", pl)
		}
		pl.Crashes.ForEach(func(cp core.PID) {
			active.ForEach(func(q core.PID) {
				if q != cp && !pl.Suspects[q].Has(cp) {
					t.Fatalf("live process %d does not suspect crashed %d", q, cp)
				}
			})
		})
	}
}

// sweepRun is the run function X05 explores: FloodMin(2) at n=3 under one
// long-lived enumerator of expr, with validity and expr's compiled checker
// judged on every schedule.
func sweepRun(expr *hoalg.Expr, enum hoalg.Enum) func(*mc.Ctx) error {
	const n = 3
	pred := expr.Compile()
	inputs := []core.Value{0, 1, 2}
	return mc.CheckRun(mc.RunSpec{
		N:       n,
		Inputs:  inputs,
		Factory: agreement.FloodMin(2),
		Oracle: func(ctx *mc.Ctx) core.Oracle {
			return adversary.Enumerated(ctx, n, enum)
		},
		Props: []mc.Property{mc.Validity(inputs)},
		Model: &pred,
	})
}

// TestSharedEnumExploresTheSameTree: one compiled Enum serves every schedule
// of every exploration, from every subtree worker. Its memoised lists must
// be invisible — the second exploration and every worker count report the
// Result of the first — and under -race (make race) this is also the
// proof that the table is locked and that no consumer writes to a plan.
func TestSharedEnumExploresTheSameTree(t *testing.T) {
	expr := hoalg.BSys(1, 2)
	enum, err := expr.CompileEnum(3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := mc.Explore(mc.Options{Workers: 1}, sweepRun(expr, enum))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Exhausted || first.Schedules != 63*63 {
		t.Fatalf("first exploration: %+v, want 3969 schedules exhausted", first)
	}
	for _, workers := range []int{1, 4, 8} {
		again, err := mc.Explore(mc.Options{Workers: workers}, sweepRun(expr, enum))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("workers=%d on the warm enumerator: %+v, first exploration %+v", workers, again, first)
		}
	}
}

// TestEmptyFamilyIsAnExploreError: a model that admits no plan from some
// state is not a panic and not a counterexample — Explore (and Replay)
// return an *EmptyFamilyError naming the round and the state, at every
// worker count, and the memoised empty list fails the second exploration
// exactly like the first.
func TestEmptyFamilyIsAnExploreError(t *testing.T) {
	for _, c := range []struct {
		expr  *hoalg.Expr
		round int
	}{
		{hoalg.And(hoalg.PerRound(0), hoalg.Not(hoalg.PerRound(0))), 1},
		{hoalg.And(hoalg.Identical(), hoalg.Not(hoalg.Identical())), 1},
		// Round 1 is outside the window and offers 343 plans; each of the
		// parallel subtrees then finds round 2 empty.
		{hoalg.Eventually(1, hoalg.And(hoalg.PerRound(0), hoalg.Not(hoalg.PerRound(0)))), 2},
	} {
		enum, err := c.expr.CompileEnum(3)
		if err != nil {
			t.Fatalf("%s: %v", c.expr, err)
		}
		var texts []string
		for _, workers := range []int{1, 1, 4, 8} {
			res, err := mc.Explore(mc.Options{Workers: workers}, sweepRun(c.expr, enum))
			var empty *hoalg.EmptyFamilyError
			if !errors.As(err, &empty) {
				t.Fatalf("%s workers=%d: Explore returned (%+v, %v), want an *EmptyFamilyError", c.expr, workers, res, err)
			}
			if empty.Round != c.round || empty.State.R != c.round || !empty.State.Active.Equal(core.FullSet(3)) {
				t.Fatalf("%s workers=%d: error names round %d, state %+v; want round %d, everyone active",
					c.expr, workers, empty.Round, empty.State, c.round)
			}
			if res == nil || res.Counterexample != nil || res.Schedules != 0 {
				t.Fatalf("%s workers=%d: result %+v, want no schedule and no counterexample", c.expr, workers, res)
			}
			texts = append(texts, err.Error())
		}
		for _, text := range texts {
			if text != texts[0] || !strings.Contains(text, fmt.Sprintf("no plan in round %d", c.round)) {
				t.Fatalf("%s: error text differs across visits or worker counts: %q", c.expr, texts)
			}
		}
		rerr := mc.Replay(nil, sweepRun(c.expr, enum))
		if rerr == nil || rerr.Error() != texts[0] {
			t.Fatalf("%s: Replay returned %v, want %q", c.expr, rerr, texts[0])
		}
	}
}

// TestEnumeratedPlanOnAWarmState pins what one round of one schedule costs
// once the enumerator knows the state: the oracle, its two history sets, the
// round union and the history entry — nothing per plan, and no labels: the
// family carries them.
func TestEnumeratedPlanOnAWarmState(t *testing.T) {
	const n = 3
	enum, err := hoalg.BSys(1, 2).CompileEnum(n)
	if err != nil {
		t.Fatal(err)
	}
	active := core.FullSet(n)
	var allocs float64
	if err := mc.Replay(nil, func(ctx *mc.Ctx) error {
		allocs = testing.AllocsPerRun(100, func() {
			if plan := adversary.Enumerated(ctx, n, enum).Plan(1, active); len(plan.Suspects) != n {
				t.Fatalf("plan %+v", plan)
			}
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Measured 4; 5 when the labels are hashed per schedule again.
	// Re-enumerating the 63-plan family costs hundreds.
	if allocs > 4 {
		t.Fatalf("Enumerated + Plan on a warm state: %.0f allocations, want <= 4", allocs)
	}
}

// planListGolden pins the compiled enumerators to the hand-written
// generators they replaced (retired with their differential tests; the last
// commit holding them is PR 22's). Each row is the SHA-256, recorded from
// those references, of one walk over engine-reachable states — see
// walkStates — rendering every visited state and its full plan list: param is
// f, or k for k-set.
var planListGolden = []struct {
	ctor     string
	n, param int
	sum      string
}{
	{"per-round-budget", 2, 0, "7492ff7c77db650fd91bcf236ad8ddb367416f2aa3ef376be76d2167529432da"},
	{"send-omission", 2, 0, "7492ff7c77db650fd91bcf236ad8ddb367416f2aa3ef376be76d2167529432da"},
	{"sync-crash", 2, 0, "9adb6adc4f86af85e33c07c3552669428046d692efb575b64d4b086880333990"},
	{"per-round-budget", 2, 1, "bff04f2fd507e7ddd86373bf08af005a022e2c184771484a96a3e982b6cac1d8"},
	{"send-omission", 2, 1, "fd4bb30fd7568b785c8e9267e0ddfcb41c705e0591909bd6dcc1d46122bca82f"},
	{"sync-crash", 2, 1, "cb0d70ae53b5a68778b5705177adc0b8983014be902630e7aadb77edd512fdc0"},
	{"per-round-budget", 2, 2, "bff04f2fd507e7ddd86373bf08af005a022e2c184771484a96a3e982b6cac1d8"},
	{"send-omission", 2, 2, "bff04f2fd507e7ddd86373bf08af005a022e2c184771484a96a3e982b6cac1d8"},
	{"sync-crash", 2, 2, "5cf526a9c8d333b6a07c5f9f4cdd887d06391d119e26f700a7357eb382315fb3"},
	{"per-round-budget", 3, 0, "dd387b3554457c9df945ccf6f0d78c589e03fa2a6979a5b642c4e7d2b9ab133e"},
	{"send-omission", 3, 0, "dd387b3554457c9df945ccf6f0d78c589e03fa2a6979a5b642c4e7d2b9ab133e"},
	{"sync-crash", 3, 0, "6f445d8abb66c58dff9b9a94df98eec8107340e6c03f5b50ecf2003497922171"},
	{"per-round-budget", 3, 1, "1e6438622c4d4edecf656cea679afee67d44f9f8a1c1f22aa805126f57ee522d"},
	{"send-omission", 3, 1, "d74b338e7d201100236e2cd67ff71030a260e97337860e6a4f98a5d487c1783b"},
	{"sync-crash", 3, 1, "9dcac5ae06f754483edd1db41b1dc63ebcbab2ff050912272bc4774c5aba946a"},
	{"per-round-budget", 3, 2, "155ed7cae07a6b974e0be68b08b534fdfad858775145f597a8e998f914ce66f9"},
	{"send-omission", 3, 2, "138c9346f56d1579adeb6e64abe11cd1dc89470a1d4e9035bfa71f82fa4ecf01"},
	{"sync-crash", 3, 2, "3867f878f8223adb4d604063c35afce6a0cb03a23922b0ebc230abdeea7e8dfc"},
	{"per-round-budget", 4, 0, "b9fad722685d68b7ff4c4097a7e58f3823ea83a5ce4d20db05214b747816788b"},
	{"send-omission", 4, 0, "b9fad722685d68b7ff4c4097a7e58f3823ea83a5ce4d20db05214b747816788b"},
	{"sync-crash", 4, 0, "1ef74d0c9f44a39f7e0fddc9a7dfed59b507c9e81d8d1a08bc31f363cc3c6ed1"},
	{"per-round-budget", 4, 1, "f731dff3dcd47fb07796a8e0630aad9b4e790871c9f0411ccf1e9ca50f69cddc"},
	{"send-omission", 4, 1, "cb27b86d20db9386ba33cd7d89ad0c2705af9ca5d6e224613fe4f04248d6260f"},
	{"sync-crash", 4, 1, "f494e236c7ccebb2804e9daa6070c970732949ca69633a21cd1b5d6a2aa7f9c9"},
	{"per-round-budget", 4, 2, "d2172dcf07efcd09f20211de84e2251369aaa28e7211c9606de3e3b8b77adf5d"},
	{"send-omission", 4, 2, "37bc5ba27fcab9a31c207ea09f89eee6a07710bf7d9dec2f8971611cdcac3fce"},
	{"sync-crash", 4, 2, "7b59c701c0cbab7f47607a414640a0eaca77b48ea597e5c93fa023ef75434acc"},
	{"k-set", 2, 1, "7492ff7c77db650fd91bcf236ad8ddb367416f2aa3ef376be76d2167529432da"},
	{"k-set", 2, 2, "f4d8047d149e3a2603ac4ff7e964630281e07eeafe126aeadf2a6f557f17da63"},
	{"k-set", 3, 1, "dd387b3554457c9df945ccf6f0d78c589e03fa2a6979a5b642c4e7d2b9ab133e"},
	{"k-set", 3, 2, "3508c1c62bd7774001748dd11d10b421541dc12627c4459c2fe9814329947a06"},
}

func renderSet(b *strings.Builder, s core.Set) { fmt.Fprintf(b, "%d%s", s.Universe(), s) }

// walkStates renders st and the plans enum lists from it, then applies the
// first, middle and last plan (active shrinks by the plan's crashes, the
// suspicion history advances exactly as adversary.Enumerated records it) and
// recurses: three successors bound the branching while still exercising
// crashing and non-crashing ones.
func walkStates(b *strings.Builder, n int, enum hoalg.Enum, st hoalg.EnumState, depth int) {
	plans := enum(st).Plans
	fmt.Fprintf(b, "r%d ", st.R)
	for _, s := range append([]core.Set{st.Active, st.Suspected, st.PrevUnion}, st.Unions...) {
		renderSet(b, s)
	}
	b.WriteByte('\n')
	for _, pl := range plans {
		for _, d := range pl.Suspects {
			renderSet(b, d)
		}
		b.WriteByte('|')
		renderSet(b, pl.Crashes)
		b.WriteByte('|')
		for _, d := range pl.Deliver {
			renderSet(b, d)
		}
		b.WriteByte('\n')
	}
	if depth == 0 || len(plans) == 0 {
		return
	}
	last := -1
	for _, idx := range []int{0, len(plans) / 2, len(plans) - 1} {
		if idx == last {
			continue
		}
		last = idx
		u := core.NewSet(n)
		for _, d := range plans[idx].Suspects {
			if !d.Empty() {
				u = u.Union(d)
			}
		}
		walkStates(b, n, enum, hoalg.EnumState{
			R:         st.R + 1,
			Active:    st.Active.Diff(plans[idx].Crashes),
			Suspected: st.Suspected.Union(u),
			PrevUnion: u,
			Unions:    append(append([]core.Set(nil), st.Unions...), u),
		}, depth-1)
	}
}

func TestCompiledEnumsMatchReferencePlanLists(t *testing.T) {
	families := map[string]struct {
		enum  func(n, param int) (hoalg.Enum, error)
		depth int // rounds walked
	}{
		"per-round-budget": {adversary.EnumPerRoundBudget, 2},
		"send-omission":    {adversary.EnumSendOmission, 2},
		"sync-crash":       {adversary.EnumSyncCrash, 3},
		"k-set":            {adversary.EnumKSet, 2},
	}
	for _, g := range planListGolden {
		fam := families[g.ctor]
		var b strings.Builder
		walkStates(&b, g.n, must(t)(fam.enum(g.n, g.param)), hoalg.EnumState{
			R:         1,
			Active:    core.FullSet(g.n),
			Suspected: core.NewSet(g.n),
			PrevUnion: core.NewSet(g.n),
		}, fam.depth)
		if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); sum != g.sum {
			t.Errorf("%s n=%d param=%d: plan lists hash to %s, the reference's to %s", g.ctor, g.n, g.param, sum, g.sum)
		}
	}
}

func must(t *testing.T) func(hoalg.Enum, error) hoalg.Enum {
	return func(e hoalg.Enum, err error) hoalg.Enum {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
}

// exploreWith runs the standard qkset exploration under the given
// enumeration and returns the result.
func exploreWith(t *testing.T, n, f int, factory core.Factory, enum hoalg.Enum) *mc.Result {
	t.Helper()
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	res, err := mc.Explore(mc.Options{}, mc.CheckRun(mc.RunSpec{
		N:       n,
		Inputs:  inputs,
		Factory: factory,
		Oracle: func(ctx *mc.Ctx) core.Oracle {
			return adversary.Enumerated(ctx, n, enum)
		},
		Props: []mc.Property{
			mc.Validity(inputs),
			mc.KAgreement(f + 1),
		},
		Mark: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCompiledEnumsMatchReferenceInMC holds the compiled enumerators to the
// model-checking statistics recorded from the references: same schedule
// counts, no pruning, no symmetry or sleep skips, same exhaustion — the
// whole choice tree is the same.
func TestCompiledEnumsMatchReferenceInMC(t *testing.T) {
	const n, f, k = 3, 1, 2
	cases := []struct {
		name      string
		enum      hoalg.Enum
		schedules int
	}{
		{"per-round-budget", must(t)(adversary.EnumPerRoundBudget(n, f)), 27},
		{"k-set", must(t)(adversary.EnumKSet(n, k)), 10},
		{"send-omission", must(t)(adversary.EnumSendOmission(n, f)), 10},
		{"sync-crash", must(t)(adversary.EnumSyncCrash(n, f)), 10},
	}
	for _, tc := range cases {
		got := exploreWith(t, n, f, agreement.QuorumKSet(f), tc.enum)
		if got.Counterexample != nil {
			t.Fatalf("%s: unexpected counterexample %v", tc.name, got.Counterexample)
		}
		if want := (mc.Stats{Schedules: tc.schedules, MaxDepth: 1}); got.Stats != want || !got.Exhausted {
			t.Fatalf("%s: exploration stats %+v (exhausted %v), the reference's %+v (exhausted)",
				tc.name, got.Stats, got.Exhausted, want)
		}
	}
}

// TestCompiledEnumPerRoundScheduleCount pins the historical exact count:
// two rounds of 27 plans each under FloodMin — the compiled enumerator must
// keep the bespoke 729.
func TestCompiledEnumPerRoundScheduleCount(t *testing.T) {
	inputs := []core.Value{0, 1, 2}
	enum := must(t)(adversary.EnumPerRoundBudget(3, 1))
	res, err := mc.Explore(mc.Options{}, mc.CheckRun(mc.RunSpec{
		N: 3, Inputs: inputs, Factory: agreement.FloodMin(2),
		Oracle: func(ctx *mc.Ctx) core.Oracle {
			return adversary.Enumerated(ctx, 3, enum)
		},
		Props: []mc.Property{mc.Validity(inputs)},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules != 27*27 {
		t.Fatalf("schedules = %d, want 729", res.Schedules)
	}
}

// TestCompiledEnumBuggyShrinksSame plants the wrong-quorum decision rule
// and demands the shrunk counterexample replay string the reference
// enumeration gave.
func TestCompiledEnumBuggyShrinksSame(t *testing.T) {
	const n, f = 3, 1
	res := exploreWith(t, n, f, agreement.QuorumKSetBuggy(f), must(t)(adversary.EnumPerRoundBudget(n, f)))
	if res.Counterexample == nil {
		t.Fatal("planted bug not caught")
	}
	if got := mc.FormatChoices(res.Counterexample.Choices); got != "c1:4" {
		t.Fatalf("shrunk counterexample %q, the reference's c1:4", got)
	}
}
