package mc

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// binaryTree returns a run making depth choices of width options each.
func tree(depth, options int, violate func(choices []int) bool) func(*Ctx) error {
	return func(ctx *Ctx) error {
		choices := make([]int, depth)
		for i := range choices {
			choices[i] = ctx.Choose(options)
		}
		if violate != nil && violate(choices) {
			return fmt.Errorf("violation at %v", choices)
		}
		return nil
	}
}

func TestExploreCountsLeaves(t *testing.T) {
	res, err := Explore(Options{}, tree(3, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules != 8 || !res.Exhausted || res.LimitHit || res.Counterexample != nil {
		t.Fatalf("res = %+v, want 8 exhausted schedules", res)
	}
	if res.Stats.MaxDepth != 3 {
		t.Fatalf("MaxDepth = %d, want 3", res.Stats.MaxDepth)
	}
}

func TestExploreSingleRun(t *testing.T) {
	// A run making no choices is one schedule, trivially exhausted.
	ran := 0
	res, err := Explore(Options{}, func(ctx *Ctx) error { ran++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules != 1 || !res.Exhausted {
		t.Fatalf("res = %+v, want 1 exhausted schedule", res)
	}
}

func TestExploreViolationOnFirstPath(t *testing.T) {
	res, err := Explore(Options{}, tree(2, 2, func(c []int) bool { return true }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	if res.Schedules != 0 {
		t.Fatalf("schedules = %d, want 0 (first path violates)", res.Schedules)
	}
	if len(res.Counterexample.Choices) != 0 {
		// Every schedule violates, so shrinking reaches the empty
		// sequence (trailing zeros replay as defaults).
		t.Fatalf("choices = %v, want empty after shrinking", res.Counterexample.Choices)
	}
}

func TestExploreFindsAndShrinksViolation(t *testing.T) {
	// Violating schedules: first choice 2 and second choice >= 1. The
	// depth-first search hits [2,1,0] first; shrinking lowers nothing
	// (2 and 1 are load-bearing) and drops the irrelevant trailing 0.
	violate := func(c []int) bool { return c[0] == 2 && c[1] >= 1 }
	res, err := Explore(Options{}, tree(3, 3, violate))
	if err != nil {
		t.Fatal(err)
	}
	cx := res.Counterexample
	if cx == nil {
		t.Fatal("no counterexample")
	}
	if want := []int{2, 1, 0}; !reflect.DeepEqual(cx.FirstFound, want) {
		t.Fatalf("FirstFound = %v, want %v", cx.FirstFound, want)
	}
	if want := []int{2, 1}; !reflect.DeepEqual(cx.Choices, want) {
		t.Fatalf("Choices = %v, want %v", cx.Choices, want)
	}
	// Depth-first order: subtrees 0 and 1 fully pass (9 each), then
	// [2,0,*] passes (3) before [2,1,0] violates.
	if res.Schedules != 21 {
		t.Fatalf("schedules = %d, want 21", res.Schedules)
	}
	if err := Replay(cx.Choices, tree(3, 3, violate)); err == nil {
		t.Fatal("shrunk counterexample does not replay to a violation")
	}
}

func TestExploreDeterministicAcrossWorkers(t *testing.T) {
	violate := func(c []int) bool { return c[0] == 2 && c[1] >= 1 }
	var results []*Result
	for _, w := range []int{1, 4, 8} {
		res, err := Explore(Options{Workers: w}, tree(3, 3, violate))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i, res := range results[1:] {
		if !reflect.DeepEqual(results[0], res) {
			t.Fatalf("workers result %d differs:\n%+v\nvs\n%+v", i+1, results[0], res)
		}
	}
}

func TestExploreMaxSchedules(t *testing.T) {
	res, err := Explore(Options{MaxSchedules: 3}, tree(3, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !res.LimitHit || res.Exhausted {
		t.Fatalf("res = %+v, want limit hit", res)
	}
	if res.Schedules > 3 {
		t.Fatalf("schedules = %d, want <= 3", res.Schedules)
	}
}

func TestExploreDivergence(t *testing.T) {
	invocation := 0
	// Workers: 1 — the run counts into invocation.
	res, err := Explore(Options{Workers: 1}, func(ctx *Ctx) error {
		invocation++
		opts := 2
		if invocation > 1 {
			opts = 3
		}
		ctx.Choose(opts)
		return nil
	})
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("err = %v, want DivergenceError", err)
	}
	if div.Depth != 0 || div.Want != 2 || div.Got != 3 {
		t.Fatalf("divergence %+v, want depth 0, 2 vs 3", div)
	}
	if res == nil {
		t.Fatal("result should still carry stats on divergence")
	}
}

func TestExploreLabelDivergence(t *testing.T) {
	invocation := 0
	// Workers: 1 — the run counts into invocation.
	_, err := Explore(Options{Workers: 1}, func(ctx *Ctx) error {
		invocation++
		labels := []uint64{10, 20}
		if invocation > 1 {
			labels = []uint64{10, 21}
		}
		ctx.ChooseLabeled(labels)
		return nil
	})
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("err = %v, want DivergenceError", err)
	}
	if div.Want != div.Got {
		t.Fatalf("label divergence should report equal counts, got %+v", div)
	}
}

// TestExploreFail: a schedule that calls Ctx.Fail ends the exploration with
// that error — not a counterexample — carrying the schedules completed
// before it, identically at every worker count; later choices of the failed
// schedule answer 0, the first Fail wins, and Replay returns it too.
func TestExploreFail(t *testing.T) {
	broken := errors.New("no move to offer")
	run := func(ctx *Ctx) error {
		a := ctx.Choose(3)
		if a == 1 {
			ctx.Fail(broken)
			ctx.Fail(errors.New("a second failure"))
			if v := ctx.Choose(5); v != 0 {
				t.Errorf("Choose after Fail = %d, want 0", v)
			}
			return errors.New("the wind-down error is not what Explore reports")
		}
		ctx.Choose(2)
		return nil
	}
	var first *Result
	for _, workers := range []int{1, 4, 8} {
		res, err := Explore(Options{Workers: workers}, run)
		if err != broken {
			t.Fatalf("workers=%d: err = %v, want the error handed to Fail", workers, err)
		}
		if res.Schedules != 2 || res.Counterexample != nil {
			t.Fatalf("workers=%d: res = %+v, want the first subtree's 2 schedules and no counterexample", workers, res)
		}
		if first == nil {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("workers=%d: res = %+v, workers=1 gave %+v", workers, res, first)
		}
	}
	if err := Replay([]int{1}, run); err != broken {
		t.Fatalf("Replay = %v, want the error handed to Fail", err)
	}
	if err := Replay([]int{2, 1}, run); err != nil {
		t.Fatalf("Replay of a healthy schedule = %v", err)
	}
	// On the very first schedule the probe reports it.
	if res, err := Explore(Options{}, func(ctx *Ctx) error { ctx.Fail(broken); return nil }); err != broken || res.Schedules != 0 {
		t.Fatalf("Fail on the first schedule: (%+v, %v)", res, err)
	}
}

func TestSymmetryReduction(t *testing.T) {
	// Three options, two of them carrying the same label: the duplicate
	// is collapsed at every node, so the depth-2 tree has 4 leaves, not 9.
	run := func(ctx *Ctx) error {
		ctx.ChooseLabeled([]uint64{7, 7, 9})
		ctx.ChooseLabeled([]uint64{7, 7, 9})
		return nil
	}
	res, err := Explore(Options{}, run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules != 4 || !res.Exhausted {
		t.Fatalf("res = %+v, want 4 exhausted schedules", res)
	}
	if res.SymmetrySkips == 0 {
		t.Fatal("expected symmetry skips to be counted")
	}
}

func TestSleepSetReduction(t *testing.T) {
	// Three fully independent one-step processes: of the 6 interleavings
	// the sleep-set reduction explores only those where a woken process
	// is forced, and every explored schedule reaches the same final
	// state. With 3 processes the reduction keeps 4 of 6 interleavings
	// (a pure sleep-set search would keep 1; the explorer never skips
	// every option at a node, because the run needs a value mid-flight).
	allIndependent := func(a, b uint64) bool { return true }
	run := func(ctx *Ctx) error {
		remaining := []uint64{1, 2, 3}
		for len(remaining) > 0 {
			i := ctx.ChooseLabeled(remaining)
			remaining = append(remaining[:i], remaining[i+1:]...)
		}
		return nil
	}
	res, err := Explore(Options{Independent: allIndependent}, run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules != 4 {
		t.Fatalf("schedules = %d, want 4", res.Schedules)
	}
	if res.SleepSkips == 0 {
		t.Fatal("expected sleep-set skips to be counted")
	}

	// Without the independence relation the full 6 interleavings run.
	res, err = Explore(Options{}, run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedules != 6 {
		t.Fatalf("unreduced schedules = %d, want 6", res.Schedules)
	}
}

// markedConverging is a run whose subtrees converge: after an initial
// splitting choice, two binary choices lead to a state that depends only
// on their sum, reported via Mark; a final binary choice hangs below it.
func markedConverging(ctx *Ctx) error {
	top := ctx.Choose(2)
	sum := ctx.Choose(2) + ctx.Choose(2)
	ctx.Mark(uint64(top)*100 + uint64(sum))
	ctx.Choose(2)
	return nil
}

func TestStateHashPruning(t *testing.T) {
	res, err := Explore(Options{}, markedConverging)
	if err != nil {
		t.Fatal(err)
	}
	// Per top-level subtree: (0,0) and (1,1) explore 2 leaves each,
	// (0,1) explores 2 and exhausts hash sum=1, (1,0) is pruned and
	// completes once: 7 schedules, 1 prune; twice for the two subtrees.
	if res.Schedules != 14 || res.Pruned != 2 {
		t.Fatalf("res = %+v, want 14 schedules, 2 pruned", res)
	}
	if !res.Exhausted {
		t.Fatal("pruning must not clear Exhausted")
	}

	noprune, err := Explore(Options{NoPrune: true}, markedConverging)
	if err != nil {
		t.Fatal(err)
	}
	if noprune.Schedules != 16 || noprune.Pruned != 0 {
		t.Fatalf("NoPrune res = %+v, want 16 schedules, 0 pruned", noprune)
	}
}

func TestBoundedDepthSampling(t *testing.T) {
	run := tree(6, 2, nil)
	res, err := Explore(Options{MaxDepth: 2, Samples: 3}, run)
	if err != nil {
		t.Fatal(err)
	}
	// 4 enumerated prefixes, each frontier node completed 3 times.
	if res.Schedules != 12 || res.Sampled != 12 {
		t.Fatalf("res = %+v, want 12 sampled schedules", res)
	}
	if res.Exhausted {
		t.Fatal("sampling must clear Exhausted")
	}
	if res.Stats.MaxDepth != 6 {
		t.Fatalf("MaxDepth = %d, want 6 (sampled tail counts)", res.Stats.MaxDepth)
	}

	// Same options, same seed: byte-identical, at any worker count.
	for _, w := range []int{1, 4, 8} {
		again, err := Explore(Options{MaxDepth: 2, Samples: 3, Workers: w}, run)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("workers=%d sampling result differs:\n%+v\nvs\n%+v", w, res, again)
		}
	}

	// A different seed draws different completions but the same counts.
	other, err := Explore(Options{MaxDepth: 2, Samples: 3, Seed: 99}, run)
	if err != nil {
		t.Fatal(err)
	}
	if other.Schedules != 12 {
		t.Fatalf("reseeded schedules = %d, want 12", other.Schedules)
	}
}

func TestSampledViolationIsReplayable(t *testing.T) {
	// The violation lives beyond the sampling frontier; the recorded
	// tail must still replay it.
	violate := func(c []int) bool { return c[4] == 1 }
	run := tree(5, 2, violate)
	res, err := Explore(Options{MaxDepth: 2, Samples: 4}, run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Skip("seeded sampling missed the violation (seed-dependent); nothing to replay")
	}
	if err := Replay(res.Counterexample.FirstFound, run); err == nil {
		t.Fatal("sampled counterexample does not replay")
	}
}

func TestReplayClamping(t *testing.T) {
	var seen []int
	run := func(ctx *Ctx) error {
		seen = append(seen, ctx.Choose(2), ctx.Choose(3), ctx.Choose(2))
		return nil
	}
	// Out-of-range values clamp, missing choices default to 0, extra
	// choices are ignored.
	if err := Replay([]int{9, -1, 1, 7, 7}, run); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 0, 1}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("seen = %v, want %v", seen, want)
	}
}

func TestChooseNoOptionsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choose(0) should panic")
		}
	}()
	_, _ = Explore(Options{}, func(ctx *Ctx) error {
		ctx.Choose(0)
		return nil
	})
}

// eventRecorder captures mc.* events through Options.Observer.
type eventRecorder struct {
	kinds  []string
	fields []map[string]any
}

func (e *eventRecorder) Observe(ev obs.Event) {
	e.kinds = append(e.kinds, ev.Kind)
	e.fields = append(e.fields, ev.Fields)
}

func TestObserverEvents(t *testing.T) {
	rec := &eventRecorder{}
	res, err := Explore(Options{Observer: rec}, tree(2, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	schedules, dones := 0, 0
	var done map[string]any
	for i, k := range rec.kinds {
		switch k {
		case "mc.schedule":
			schedules++
		case "mc.done":
			dones++
			done = rec.fields[i]
		}
	}
	if schedules != res.Schedules {
		t.Fatalf("observed %d mc.schedule events, result says %d", schedules, res.Schedules)
	}
	if dones != 1 || done["schedules"] != res.Schedules {
		t.Fatalf("mc.done = %v (count %d), want one event carrying %d schedules", done, dones, res.Schedules)
	}
}

// discardEvents is an observer that keeps nothing.
type discardEvents struct{}

func (discardEvents) Observe(obs.Event) {}

// TestUnobservedExploreBuildsNoEventFields: with no Observer an explored
// schedule builds no field map for the mc.schedule event nobody receives, so
// the same exploration under an observer that discards everything allocates
// at least one map per schedule more.
func TestUnobservedExploreBuildsNoEventFields(t *testing.T) {
	const schedules = 64
	explore := func(opts Options) float64 {
		opts.Workers = 1
		return testing.AllocsPerRun(20, func() {
			if res, err := Explore(opts, tree(3, 4, nil)); err != nil || res.Schedules != schedules {
				t.Fatalf("res = %+v, err = %v, want %d schedules", res, err, schedules)
			}
		})
	}
	unobserved, observed := explore(Options{}), explore(Options{Observer: discardEvents{}})
	if unobserved+schedules > observed {
		t.Fatalf("%.0f allocations unobserved, %.0f observed: want at least %d fewer, one field map per schedule",
			unobserved, observed, schedules)
	}
}

func TestShrinkLowersChoices(t *testing.T) {
	// Any schedule whose first choice is >= 1 violates; the minimal
	// counterexample is [1], not the [4,...] the search found first...
	// except depth-first order finds [1,0] first anyway, so force the
	// interesting case: violation requires c0 >= 1 AND c1 == 2. DFS
	// finds [1,2]; shrinking cannot lower either coordinate.
	violate := func(c []int) bool { return c[0] >= 1 && c[1] == 2 }
	res, err := Explore(Options{}, tree(2, 5, violate))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	if want := []int{1, 2}; !reflect.DeepEqual(res.Counterexample.Choices, want) {
		t.Fatalf("Choices = %v, want %v", res.Counterexample.Choices, want)
	}
}
