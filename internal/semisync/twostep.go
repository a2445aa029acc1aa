package semisync

import (
	"fmt"

	"repro/internal/core"
)

// roundMsg is a round-tagged broadcast of the two-step protocol.
type roundMsg struct {
	round int
	value core.Value
}

// twoStep implements §5's realization of the eq. (5) RRFD: execution
// proceeds in blocks of two steps per round. At the first step of a round
// the process broadcasts its round message — unless it has already received
// somebody's round-r message, in which case it stays silent for the round
// (the receive part of the step counts: the first receive/send acts as an
// atomic read-modify-write). At the end of the second step, D(i,r) is the
// set of processes from which no round-r message was received (the process
// itself counted as received iff it broadcast).
//
// Theorem 5.1: all D(i,r) agree, so with the one-round rule of Theorem 3.1
// (k = 1) the process decides consensus at the end of round 1 — after
// exactly 2 steps.
type twoStep struct {
	me     core.PID
	n      int
	input  core.Value
	rounds int // halt after this many rounds

	round     int // current round, 1-based
	phase     int // 1 or 2 within the round
	broadcast bool
	seen      map[int]map[core.PID]core.Value // round → sender → value
	rec       core.RoundRec                   // D(i,r) per completed round
	decided   bool
}

// TwoStepFactory returns the factory for the two-step protocol running the
// given number of rounds (each costing exactly two steps). The consensus
// decision is taken at the end of round 1; later rounds serve to exhibit
// the eq. (5) detector across time.
func TwoStepFactory(rounds int) Factory {
	return func(me core.PID, n int, input core.Value) Stepper {
		return &twoStep{
			me: me, n: n, input: input, rounds: rounds,
			round: 1, phase: 1,
			seen: make(map[int]map[core.PID]core.Value),
		}
	}
}

func (t *twoStep) record(received []Msg) {
	for _, m := range received {
		rm, ok := m.Payload.(roundMsg)
		if !ok {
			continue
		}
		if t.seen[rm.round] == nil {
			t.seen[rm.round] = make(map[core.PID]core.Value)
		}
		t.seen[rm.round][m.From] = rm.value
	}
}

// value is what the process emits at round r (the input; later rounds tag
// it with the round for trace purposes).
func (t *twoStep) value(r int) core.Value { return t.input }

func (t *twoStep) Step(received []Msg) StepResult {
	t.record(received)
	var res StepResult
	if t.phase == 1 {
		// First receive/send of the round: broadcast unless somebody's
		// round message already arrived (including in this step's
		// receive — the atomic read-modify-write).
		t.broadcast = len(t.seen[t.round]) == 0
		if t.broadcast {
			res.Broadcast = roundMsg{round: t.round, value: t.value(t.round)}
			res.HasBroadcast = true
		}
		t.phase = 2
		return res
	}

	// Second step: the round ends. D(i,r) = everybody whose round-r
	// message is missing; own message counts iff we broadcast.
	d := core.FullSet(t.n)
	for from := range t.seen[t.round] {
		d.Remove(from)
	}
	if t.broadcast {
		d.Remove(t.me)
	}
	t.rec.Complete(t.round, nil, d)

	if t.round == 1 && !t.decided {
		// Theorem 3.1 with k = 1: adopt the value of the smallest
		// identifier outside D(i,1).
		if v, ok := t.choose(d); ok {
			res.Decide, res.Decided = v, true
			t.decided = true
		}
	}

	t.round++
	t.phase = 1
	if t.round > t.rounds {
		res.Halt = true
	}
	return res
}

// choose returns the round-1 value of the smallest process outside d.
func (t *twoStep) choose(d core.Set) (core.Value, bool) {
	for i := 0; i < t.n; i++ {
		p := core.PID(i)
		if d.Has(p) {
			continue
		}
		if p == t.me {
			return t.value(1), true
		}
		if v, ok := t.seen[1][p]; ok {
			return v, true
		}
		return nil, false // unreachable: p ∉ D means its message arrived
	}
	return nil, false
}

// TwoStepOutcome reports a two-step protocol execution.
type TwoStepOutcome struct {
	// Outcome is the kernel-level result (decisions, step counts).
	Outcome *Outcome

	// Trace is the induced RRFD trace, one record per protocol round;
	// the tests validate it against eq. (5).
	Trace *core.Trace
}

// RunTwoStep executes the two-step protocol over rounds rounds and
// assembles the eq. (5) trace.
func RunTwoStep(n, rounds int, cfg Config, inputs []core.Value) (*TwoStepOutcome, error) {
	steppers := make([]*twoStep, n)
	factory := func(me core.PID, nn int, input core.Value) Stepper {
		s := TwoStepFactory(rounds)(me, nn, input).(*twoStep)
		steppers[me] = s
		return s
	}
	out, err := Run(n, cfg, factory, inputs)
	if err != nil {
		return nil, err
	}
	recs := make([]*core.RoundRec, n)
	for i, st := range steppers {
		recs[i] = &st.rec
	}
	return &TwoStepOutcome{Outcome: out, Trace: core.InducedTrace(n, recs, out.Crashed)}, nil
}

var _ Stepper = (*twoStep)(nil)

// String aids debugging.
func (t *twoStep) String() string {
	return fmt.Sprintf("twoStep{me:%d round:%d phase:%d}", t.me, t.round, t.phase)
}
