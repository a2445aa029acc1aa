package core

import (
	"errors"
	"reflect"
	"testing"
)

// echoAlg decides its own input after a fixed number of rounds and emits the
// set of suspects it has seen so far (exercising state flow).
type echoAlg struct {
	me     PID
	n      int
	input  Value
	rounds int
	target int
	seen   Set
}

func newEchoFactory(target int) Factory {
	return func(me PID, n int, input Value) Algorithm {
		return &echoAlg{me: me, n: n, input: input, target: target, seen: NewSet(n)}
	}
}

func (a *echoAlg) Emit(r int) Message { return a.input }

func (a *echoAlg) Deliver(r int, msgs Inbox, suspects Set) (Value, bool) {
	a.rounds++
	a.seen = a.seen.Union(suspects)
	if a.rounds >= a.target {
		return a.input, true
	}
	return nil, false
}

// benignOracle suspects nobody.
func benignOracle(n int) Oracle {
	return OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		for i := range sus {
			sus[i] = NewSet(n)
		}
		return RoundPlan{Suspects: sus}
	})
}

func inputsOf(vals ...int) []Value {
	out := make([]Value, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

func TestRunBenign(t *testing.T) {
	res, err := Run(4, inputsOf(10, 11, 12, 13), newEchoFactory(3), benignOracle(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("Rounds = %d, want 3", res.Rounds)
	}
	if len(res.Outputs) != 4 {
		t.Fatalf("Outputs = %v", res.Outputs)
	}
	for p, v := range res.Outputs {
		if v != int(p)+10 {
			t.Fatalf("process %d output %v", p, v)
		}
		if res.DecidedAt[p] != 3 {
			t.Fatalf("process %d decided at %d", p, res.DecidedAt[p])
		}
	}
	if res.Trace.Len() != 3 {
		t.Fatalf("trace has %d rounds", res.Trace.Len())
	}
	rec := res.Trace.Round(1)
	if !rec.Active.Equal(FullSet(4)) {
		t.Fatalf("round 1 active = %s", rec.Active)
	}
	if !rec.Deliver[0].Equal(FullSet(4)) {
		t.Fatalf("round 1 deliveries to p0 = %s, want all", rec.Deliver[0])
	}
}

func TestRunMaxRounds(t *testing.T) {
	_, err := Run(3, inputsOf(1, 2, 3), newEchoFactory(100), benignOracle(3), WithMaxRounds(5))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestRunCrash(t *testing.T) {
	n := 4
	// Crash p3 at round 2; everyone must suspect it thereafter.
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		crash := NewSet(n)
		if r >= 2 {
			crash.Add(3)
		}
		for i := range sus {
			sus[i] = NewSet(n)
			if r >= 2 {
				sus[i].Add(3)
			}
		}
		return RoundPlan{Suspects: sus, Crashes: crash}
	})
	res, err := Run(n, inputsOf(1, 2, 3, 4), newEchoFactory(4), oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed.Equal(SetOf(n, 3)) {
		t.Fatalf("Crashed = %s", res.Crashed)
	}
	if _, ok := res.Outputs[3]; ok {
		t.Fatal("crashed process decided")
	}
	if len(res.Outputs) != 3 {
		t.Fatalf("Outputs = %v", res.Outputs)
	}
	rec := res.Trace.Round(2)
	if rec.Active.Has(3) {
		t.Fatal("crashed process active in round 2")
	}
	if !rec.Crashed.Has(3) {
		t.Fatal("round 2 record does not mark p3 crashed")
	}
	// Deliveries in round 2 must not include p3.
	if rec.Deliver[0].Has(3) {
		t.Fatal("received message from crashed process")
	}
}

func TestRunRejectsSuspectAll(t *testing.T) {
	n := 3
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		for i := range sus {
			sus[i] = FullSet(n)
		}
		return RoundPlan{Suspects: sus}
	})
	_, err := Run(n, inputsOf(1, 2, 3), newEchoFactory(1), oracle)
	var pe *PlanError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PlanError", err)
	}
}

func TestRunRejectsUnsuspectedCrash(t *testing.T) {
	n := 3
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		for i := range sus {
			sus[i] = NewSet(n) // nobody suspected, yet p2 crashes
		}
		return RoundPlan{Suspects: sus, Crashes: SetOf(n, 2)}
	})
	_, err := Run(n, inputsOf(1, 2, 3), newEchoFactory(1), oracle)
	var pe *PlanError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PlanError", err)
	}
}

func TestRunRejectsDeliveryFromNonEmitter(t *testing.T) {
	n := 3
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		del := make([]Set, n)
		for i := range sus {
			sus[i] = SetOf(n, 2)
			del[i] = FullSet(n) // claims delivery from crashed p2
		}
		return RoundPlan{Suspects: sus, Crashes: SetOf(n, 2), Deliver: del}
	})
	_, err := Run(n, inputsOf(1, 2, 3), newEchoFactory(1), oracle)
	var pe *PlanError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PlanError", err)
	}
}

// countingAlg counts the Emit and Deliver calls its process receives.
type countingAlg struct{ emits, delivers *int }

func (a countingAlg) Emit(r int) Message { *a.emits++; return nil }

func (a countingAlg) Deliver(r int, msgs Inbox, suspects Set) (Value, bool) {
	*a.delivers++
	return nil, false
}

// TestUncoveredPlanDeliversToNobody: a Deliver override that leaves S(i,r)
// ∪ D(i,r) short of S is rejected before anybody emits, naming the first
// offending process.
func TestUncoveredPlanDeliversToNobody(t *testing.T) {
	n := 3
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := []Set{NewSet(n), NewSet(n), NewSet(n)}
		return RoundPlan{Suspects: sus, Deliver: []Set{SetOf(n, 0), SetOf(n, 1), {}}}
	})
	emits, delivers := make([]int, n), make([]int, n)
	_, err := Run(n, inputsOf(1, 2, 3), func(me PID, n int, input Value) Algorithm {
		return countingAlg{&emits[me], &delivers[me]}
	}, oracle)
	var pe *PlanError
	if !errors.As(err, &pe) || pe.Proc != 0 || pe.Reason != "S(i,r) ∪ D(i,r) ≠ S" {
		t.Fatalf("err = %v, want process 0's S(i,r) ∪ D(i,r) ≠ S", err)
	}
	for p := range emits {
		if emits[p] != 0 || delivers[p] != 0 {
			t.Errorf("p%d: %d emits, %d delivers under a rejected plan", p, emits[p], delivers[p])
		}
	}
}

// inboxProbe records what its process's inbox held in round 1.
type inboxProbe struct {
	me    PID
	order []PID
	got   map[PID]bool
	len   int
	from  Set
}

func (a *inboxProbe) Emit(r int) Message { return int(a.me) * 10 }

func (a *inboxProbe) Deliver(r int, msgs Inbox, suspects Set) (Value, bool) {
	msgs.ForEach(func(p PID, m Message) {
		if m != int(p)*10 {
			a.order = append(a.order, -1) // a foreign message fails the order check
		}
		a.order = append(a.order, p)
	})
	for p := PID(0); p < 5; p++ {
		_, a.got[p] = msgs.Get(p)
	}
	a.len, a.from = msgs.Len(), msgs.From().Clone()
	return nil, true
}

// TestInboxIsTheDeliverOverride pins the Inbox contract: a process that
// emitted but lies outside the plan's Deliver override is not in the
// inbox, and ForEach ascends with each member's own message.
func TestInboxIsTheDeliverOverride(t *testing.T) {
	n := 5
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		for i := range sus {
			sus[i] = NewSet(n)
		}
		sus[0] = SetOf(n, 1, 3)
		return RoundPlan{Suspects: sus, Deliver: []Set{SetOf(n, 4, 2, 0), {}, {}, {}, {}}}
	})
	probes := make([]*inboxProbe, n)
	if _, err := Run(n, make([]Value, n), func(me PID, n int, input Value) Algorithm {
		probes[me] = &inboxProbe{me: me, got: map[PID]bool{}}
		return probes[me]
	}, oracle); err != nil {
		t.Fatal(err)
	}
	p0 := probes[0]
	if !reflect.DeepEqual(p0.order, []PID{0, 2, 4}) || p0.len != 3 || !p0.from.Equal(SetOf(n, 0, 2, 4)) {
		t.Fatalf("p0's inbox: ForEach %v, Len %d, From %s; want [0 2 4], 3, {0,2,4}", p0.order, p0.len, p0.from)
	}
	if p0.got[1] || p0.got[3] || !p0.got[0] || !p0.got[2] || !p0.got[4] {
		t.Fatalf("p0's Get = %v, want exactly 0, 2, 4", p0.got)
	}
	if !reflect.DeepEqual(probes[1].order, []PID{0, 1, 2, 3, 4}) {
		t.Fatalf("p1 (no override) heard %v, want everyone in order", probes[1].order)
	}
}

// TestEngineRoundAllocsPerRun pins what a round costs the engine itself,
// under an allocation-free algorithm and one prebuilt plan: nothing
// untraced, and a recorded round's two slabs (its word rows and their
// headers) plus the trace's amortized growth, whatever n is.
func TestEngineRoundAllocsPerRun(t *testing.T) {
	for _, n := range []int{4, 16, 64} {
		plan := RoundPlan{Suspects: make([]Set, n)}
		for i := range plan.Suspects {
			plan.Suspects[i] = NewSet(n)
		}
		oracle := OracleFunc(func(int, Set) RoundPlan { return plan })
		nop := func(PID, int, Value) Algorithm { return nopAlgorithm{} }
		inputs := make([]Value, n)
		perRound := func(opts ...Option) float64 {
			run := func(rounds int) float64 {
				return testing.AllocsPerRun(10, func() {
					if _, err := Run(n, inputs, nop, oracle, append(opts, WithMaxRounds(rounds))...); !errors.Is(err, ErrMaxRounds) {
						t.Fatal(err)
					}
				})
			}
			return (run(20) - run(10)) / 10
		}
		if got := perRound(WithoutTrace()); got != 0 {
			t.Errorf("n=%d: an untraced round allocates %.1f objects, want 0", n, got)
		}
		if got := perRound(); got > 3 {
			t.Errorf("n=%d: a traced round allocates %.1f objects, want ≤ 3", n, got)
		}
	}
}

// TestCollectTraceAllocsPerRun pins CollectTrace's trace to one Rounds
// array sized for its known length: growing it by append instead costs
// three more objects over ten rounds, and leaves capacity for seventeen.
func TestCollectTraceAllocsPerRun(t *testing.T) {
	const n, rounds = 16, 10
	plan := RoundPlan{Suspects: make([]Set, n)}
	for i := range plan.Suspects {
		plan.Suspects[i] = NewSet(n)
	}
	oracle := OracleFunc(func(int, Set) RoundPlan { return plan })
	var tr *Trace
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if tr, err = CollectTrace(n, rounds, oracle); err != nil {
			t.Fatal(err)
		}
	})
	if tr.Len() != rounds || cap(tr.Rounds) != rounds {
		t.Fatalf("trace holds %d rounds in capacity %d, want %d in %d", tr.Len(), cap(tr.Rounds), rounds, rounds)
	}
	if allocs > 39 {
		t.Errorf("CollectTrace(%d, %d, …) allocates %.0f objects, want ≤ 39", n, rounds, allocs)
	}
}

func TestRunOverlapDeliverAndSuspect(t *testing.T) {
	// The model allows receiving a message from a suspected process:
	// suspect p1 everywhere but still deliver its message.
	n := 3
	oracle := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		del := make([]Set, n)
		for i := range sus {
			sus[i] = SetOf(n, 1)
			del[i] = FullSet(n)
		}
		return RoundPlan{Suspects: sus, Deliver: del}
	})
	res, err := Run(n, inputsOf(1, 2, 3), func(me PID, nn int, input Value) Algorithm {
		return &overlapProbe{n: nn}
	}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range res.Outputs {
		ok, _ := v.(bool)
		if !ok {
			t.Fatalf("process %d did not receive suspected process's message", p)
		}
	}
}

type overlapProbe struct{ n int }

func (o *overlapProbe) Emit(r int) Message { return "m" }

func (o *overlapProbe) Deliver(r int, msgs Inbox, suspects Set) (Value, bool) {
	_, got := msgs.Get(1)
	return got && suspects.Has(1), true
}

func TestRunWithoutTrace(t *testing.T) {
	res, err := Run(3, inputsOf(1, 2, 3), newEchoFactory(2), benignOracle(3), WithoutTrace())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace recorded despite WithoutTrace")
	}
}

func TestRunInputValidation(t *testing.T) {
	if _, err := Run(0, nil, newEchoFactory(1), benignOracle(0)); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := Run(3, inputsOf(1), newEchoFactory(1), benignOracle(3)); err == nil {
		t.Fatal("expected error for mismatched inputs")
	}
}

func TestTraceOracleRoundTrip(t *testing.T) {
	// Record an adversary's trace, replay it, and compare: the replayed
	// execution must produce the identical trace.
	n := 4
	orig := OracleFunc(func(r int, active Set) RoundPlan {
		sus := make([]Set, n)
		crashes := NewSet(n)
		if r == 2 {
			crashes.Add(3)
		}
		for i := range sus {
			sus[i] = NewSet(n)
			sus[i].Add(PID((r + i) % n))
			sus[i].Remove(PID(i))
			if r >= 2 {
				sus[i].Add(3)
			}
		}
		return RoundPlan{Suspects: sus, Crashes: crashes}
	})
	first, err := CollectTrace(n, 4, orig)
	if err != nil {
		t.Fatal(err)
	}
	second, err := CollectTrace(n, 4, TraceOracle(first))
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 4; r++ {
		a, b := first.Round(r), second.Round(r)
		if !a.Active.Equal(b.Active) {
			t.Fatalf("round %d: active %s vs %s", r, a.Active, b.Active)
		}
		for i := 0; i < n; i++ {
			if !a.Suspects[i].Equal(b.Suspects[i]) {
				t.Fatalf("round %d proc %d: %s vs %s", r, i, a.Suspects[i], b.Suspects[i])
			}
		}
	}
}

func TestTraceOracleEmptyTrace(t *testing.T) {
	res, err := Run(3, inputsOf(1, 2, 3), newEchoFactory(2), TraceOracle(NewTrace(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 3 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

func TestResultHelpers(t *testing.T) {
	res := &Result{
		Outputs:   map[PID]Value{0: 1, 1: 1, 2: 2},
		DecidedAt: map[PID]int{0: 1, 1: 4, 2: 2},
	}
	if got := res.DistinctOutputs(); got != 2 {
		t.Fatalf("DistinctOutputs = %d, want 2", got)
	}
	if got := res.MaxDecisionRound(); got != 4 {
		t.Fatalf("MaxDecisionRound = %d, want 4", got)
	}
	empty := &Result{Outputs: map[PID]Value{}, DecidedAt: map[PID]int{}}
	if empty.DistinctOutputs() != 0 || empty.MaxDecisionRound() != 0 {
		t.Fatal("empty result helpers wrong")
	}
}
