package core

import (
	"errors"
	"fmt"
	"testing"
)

// TestRunRoundsBody: the round body emits (the default emission when emit
// is nil), feeds the previous round's view and D(i,r) to the next
// emission, and returns the record so far with an exchange error.
func TestRunRoundsBody(t *testing.T) {
	boom := errors.New("boom")
	var emitted []Value
	rec, err := RunRounds(2, 3, 5, nil, func(r int, v Value) (map[PID]Value, Set, error) {
		emitted = append(emitted, v)
		if r == 3 {
			return nil, Set{}, boom
		}
		return map[PID]Value{2: v}, SetOf(3, 0, 1), nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(rec.Dsets) != 2 || !rec.completed(2) || rec.completed(3) {
		t.Fatalf("record after a round-3 error: %+v", rec)
	}
	if got, want := fmt.Sprint(emitted), "[p2@r1 p2@r2 p2@r3]"; got != want {
		t.Fatalf("default emissions = %s, want %s", got, want)
	}

	var seen []int
	_, err = RunRounds(0, 2, 2, func(me PID, r int, received map[PID]Value, suspects Set) Value {
		seen = append(seen, len(received), suspects.Count())
		return r
	}, func(r int, v Value) (map[PID]Value, Set, error) {
		return map[PID]Value{0: v}, SetOf(2, 1), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(seen), "[0 0 1 1]"; got != want {
		t.Fatalf("emit saw (|received|, |suspects|) = %s, want %s", got, want)
	}
}

// TestInducedTraceMarking: a process is Active in the rounds it completed
// — a skipped round is a hole, not an end — and Crashed in the others only
// when the runner says so; a nil record is an empty one.
func TestInducedTraceMarking(t *testing.T) {
	n := 4
	full := &RoundRec{}
	view := map[PID]Value{0: "m"}
	full.Complete(1, view, SetOf(n, 3))
	full.Complete(2, view, SetOf(n, 2, 3))
	full.Complete(3, view, SetOf(n, 3))
	skipper := &RoundRec{} // recovery: completes 1, skips 2, rejoins at 3
	skipper.Complete(1, view, NewSet(n))
	skipper.Complete(3, view, NewSet(n))
	short := &RoundRec{} // stops after round 1 without being crashed; reports no views
	short.Complete(1, nil, NewSet(n))

	tr := InducedTrace(n, []*RoundRec{full, skipper, short, nil}, SetOf(n, 3))
	if tr.Len() != 3 {
		t.Fatalf("trace has %d rounds, want 3\n%s", tr.Len(), tr)
	}
	for r, want := range []struct{ active, crashed Set }{
		{SetOf(n, 0, 1, 2), SetOf(n, 3)},
		{SetOf(n, 0), SetOf(n, 3)},
		{SetOf(n, 0, 1), SetOf(n, 3)},
	} {
		rec := tr.Round(r + 1)
		if !rec.Active.Equal(want.active) || !rec.Crashed.Equal(want.crashed) {
			t.Errorf("round %d: active=%s crashed=%s, want %s and %s", r+1, rec.Active, rec.Crashed, want.active, want.crashed)
		}
	}
	if d := tr.Round(2).Suspects[0]; !d.Equal(SetOf(n, 2, 3)) || !tr.Round(2).Deliver[0].Equal(SetOf(n, 0, 1)) {
		t.Errorf("round 2, p0: D=%s S=%s", d, tr.Round(2).Deliver[0])
	}
	if tr.Round(2).Suspects[1].Count() != 0 || tr.Round(2).Deliver[1].Count() != 0 {
		t.Errorf("round 2, p1 (inactive): D=%s S=%s, want both empty", tr.Round(2).Suspects[1], tr.Round(2).Deliver[1])
	}

	out := AssembleRoundOutcome(n, []*RoundRec{full, skipper, short, nil}, SetOf(n, 3), 17)
	if out.Steps != 17 || !out.Crashed.Equal(SetOf(n, 3)) || len(out.Views) != n {
		t.Errorf("outcome: steps=%d crashed=%s views=%v", out.Steps, out.Crashed, out.Views)
	}
	if len(out.Views[0]) != 3 || len(out.Views[1]) != 3 || out.Views[1][1] != nil || out.Views[2] != nil || out.Views[3] != nil {
		t.Errorf("views = %v, want three per view-keeping process with a nil hole at the skipped round", out.Views)
	}
}

// TestRunLockStep: on the engine each emission is made of the process's
// previous delivery, the outcome is the one a substrate runner assembles —
// views, induced trace, no steps — and an invalid plan is the error.
func TestRunLockStep(t *testing.T) {
	const n = 3
	suspects := []Set{SetOf(n, 2), NewSet(n), NewSet(n)} // p0 never hears p2
	oracle := OracleFunc(func(int, Set) RoundPlan { return RoundPlan{Suspects: suspects} })
	emit := func(me PID, r int, received map[PID]Value, d Set) Value {
		if r == 1 {
			return int(me)
		}
		return 10*len(received) + d.Count()
	}
	out, err := RunLockStep(n, 2, emit, oracle)
	if err != nil {
		t.Fatal(err)
	}
	want := map[PID][]map[PID]Value{
		0: {{0: 0, 1: 1}, {0: 21, 1: 30}},
		1: {{0: 0, 1: 1, 2: 2}, {0: 21, 1: 30, 2: 30}},
		2: {{0: 0, 1: 1, 2: 2}, {0: 21, 1: 30, 2: 30}},
	}
	if got := fmt.Sprint(out.Views); got != fmt.Sprint(want) {
		t.Fatalf("views %s, want %s", got, fmt.Sprint(want))
	}
	if out.Steps != 0 || !out.Crashed.Empty() || out.Trace.Len() != 2 {
		t.Fatalf("outcome %+v", out)
	}
	for r := 1; r <= 2; r++ {
		rec := out.Trace.Round(r)
		for i := range suspects {
			if !rec.Active.Equal(FullSet(n)) || !rec.Suspects[i].Equal(suspects[i]) || !rec.Deliver[i].Equal(suspects[i].Complement()) {
				t.Fatalf("round %d: %+v", r, rec)
			}
		}
	}

	var bad *PlanError
	everybody := OracleFunc(func(int, Set) RoundPlan { return RoundPlan{Suspects: []Set{FullSet(n), NewSet(n), NewSet(n)}} })
	if out, err := RunLockStep(n, 2, emit, everybody); !errors.As(err, &bad) || out != nil {
		t.Fatalf("D(0,1) = S: outcome %v, err %v, want a *PlanError", out, err)
	}
}
