package core

import (
	"errors"
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

func (a *echoAlg) Deliver(r int, msgs map[PID]Message, suspects Set) (Value, bool) {
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

func (o *overlapProbe) Deliver(r int, msgs map[PID]Message, suspects Set) (Value, bool) {
	_, got := msgs[1]
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
