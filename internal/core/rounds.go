package core

import "fmt"

// This file is the substrate-independent half of the paper's round
// protocol (§1): in round r process p_i emits m_{i,r}, then obtains
// S(i,r) and D(i,r) with S(i,r) ∪ D(i,r) = S. A concrete system is only
// how that exchange is carried out — RunRounds is the round body with the
// exchange as its argument, and InducedTrace turns what the processes
// recorded into the trace the model predicates judge.

// RoundEmit computes the message process me emits at round r given the
// previous round's receptions (nil at round 1) and suspect set: received
// maps each p_j ∉ D(i,r−1) to m_{j,r−1}, suspects is D(i,r−1).
type RoundEmit func(me PID, r int, received map[PID]Value, suspects Set) Value

// RoundRec is one process's record of a round-protocol execution: its
// per-round suspect sets (D(i,r)) and views (S(i,r) with payloads),
// indexed by r−1. A round the process never completed — recovery skips
// rounds to catch up — holds the zero Set and a nil view; Views stays
// empty for a runner that reports none. Every runner fills one RoundRec
// per process and hands them to InducedTrace or AssembleRoundOutcome.
type RoundRec struct {
	Dsets []Set
	Views []map[PID]Value
}

// Complete records that the process finished round r with the given view
// and D(i,r), leaving any rounds it skipped on the way marked incomplete.
// A nil view (a runner that reports none) is not stored.
func (rec *RoundRec) Complete(r int, view map[PID]Value, d Set) {
	for len(rec.Dsets) < r {
		rec.Dsets = append(rec.Dsets, Set{})
	}
	rec.Dsets[r-1] = d
	if view != nil {
		for len(rec.Views) < r {
			rec.Views = append(rec.Views, nil)
		}
		rec.Views[r-1] = view
	}
}

// completed reports whether the process finished round r.
func (rec *RoundRec) completed(r int) bool {
	return rec != nil && len(rec.Dsets) >= r && rec.Dsets[r-1].Universe() > 0
}

// RoundOutcome is the result of running the round protocol on a substrate.
type RoundOutcome struct {
	// Trace is the induced RRFD trace: Active at round r is the set of
	// processes that completed the round, Suspects[i] is D(i,r).
	Trace *Trace

	// Views[i][r-1] maps each process in S(i,r) to its round-r message,
	// for every round process i completed.
	Views map[PID][]map[PID]Value

	// Crashed is the set of processes crashed by the scheduler.
	Crashed Set

	// Steps is the number of substrate operations scheduled (elapsed
	// milliseconds on the real network).
	Steps int
}

// ShapeError rejects a round-protocol shape outside eq. (3): the n−f
// quorum needs n > 0 and 0 ≤ f < n (and rounds ≥ 0).
type ShapeError struct{ N, F, Rounds int }

func (e *ShapeError) Error() string {
	return fmt.Sprintf("core: invalid round-protocol shape n=%d f=%d rounds=%d", e.N, e.F, e.Rounds)
}

// CheckShape is the one shape validation: every round runner calls it
// before it builds anything.
func CheckShape(n, f, rounds int) error {
	if n <= 0 || f < 0 || f >= n || rounds < 0 {
		return &ShapeError{n, f, rounds}
	}
	return nil
}

// RunRounds is one process's side of the round protocol, on any
// substrate: each round it emits (nil emit: the string "p<me>@r<r>"),
// hands the emission to exchange — the substrate's way of obtaining the
// round-r view and D(i,r) — and records what came back. The record so far
// accompanies an exchange error.
func RunRounds(me PID, n, rounds int, emit RoundEmit, exchange func(r int, v Value) (map[PID]Value, Set, error)) (*RoundRec, error) {
	if emit == nil {
		emit = func(me PID, r int, _ map[PID]Value, _ Set) Value {
			return fmt.Sprintf("p%d@r%d", me, r)
		}
	}
	rec := &RoundRec{}
	var prevMsgs map[PID]Value
	prevSus := NewSet(n)
	for r := 1; r <= rounds; r++ {
		view, d, err := exchange(r, emit(me, r, prevMsgs, prevSus))
		if err != nil {
			return rec, err
		}
		rec.Complete(r, view, d)
		prevMsgs, prevSus = view, d
	}
	return rec, nil
}

// roundProc is a process of the round protocol as an engine Algorithm: it
// emits what emit makes of its last delivery and records each round as
// RunRounds does.
type roundProc struct {
	me   PID
	emit RoundEmit
	rec  RoundRec
	view map[PID]Value
	d    Set
}

func (p *roundProc) Emit(r int) Message { return p.emit(p.me, r, p.view, p.d) }

func (p *roundProc) Deliver(r int, msgs Inbox, d Set) (Value, bool) {
	p.view, p.d = make(map[PID]Value, msgs.Len()), d.Clone()
	msgs.ForEach(func(q PID, m Message) { p.view[q] = m })
	p.rec.Complete(r, p.view, p.d)
	return nil, false
}

// RunLockStep executes the round protocol on the engine, for a system whose
// D(i,r) the oracle already knows: no substrate, no steps, and the outcome
// a substrate runner assembles from the same records.
func RunLockStep(n, rounds int, emit RoundEmit, oracle Oracle, opts ...Option) (*RoundOutcome, error) {
	recs := make([]*RoundRec, n)
	res, err := Run(n, make([]Value, n), func(me PID, n int, _ Value) Algorithm {
		p := &roundProc{me: me, emit: emit, d: NewSet(n)}
		recs[me] = &p.rec
		return p
	}, oracle, append(opts[:len(opts):len(opts)], WithoutTrace(), WithMaxRounds(rounds))...)
	if err != nil && err != ErrMaxRounds { // Run's bare return once the rounds are run: nobody decides
		return nil, err
	}
	return AssembleRoundOutcome(n, recs, res.Crashed, 0), nil
}

// InducedTrace builds the RRFD trace an execution induces from its
// per-process round records: Active at round r is every process that
// completed r, Suspects[i] is a copy of its D(i,r), Deliver[i] the
// complement, and a process without the round is marked Crashed when it is
// in crashed. The trace runs to the last round anybody completed. Nil
// entries of recs are treated as empty records.
func InducedTrace(n int, recs []*RoundRec, crashed Set) *Trace {
	rounds := 0
	for _, rec := range recs {
		if rec != nil {
			rounds = max(rounds, len(rec.Dsets))
		}
	}
	t := NewTrace(n)
	for r := 1; r <= rounds; r++ {
		rr := NewRoundRecord(r, n)
		for i := 0; i < n; i++ {
			pid := PID(i)
			if recs[i].completed(r) {
				rr.Active.Add(pid)
				rr.Suspects[i].CopyFrom(recs[i].Dsets[r-1])
				rr.Deliver[i].fill()
				rr.Deliver[i].DiffInto(rr.Suspects[i])
			} else if crashed.Has(pid) {
				rr.Crashed.Add(pid)
			}
		}
		t.Append(rr)
	}
	return t
}

// AssembleRoundOutcome is InducedTrace plus each process's views: what a
// round runner returns.
func AssembleRoundOutcome(n int, recs []*RoundRec, crashed Set, steps int) *RoundOutcome {
	res := &RoundOutcome{
		Trace:   InducedTrace(n, recs, crashed),
		Views:   make(map[PID][]map[PID]Value, n),
		Crashed: crashed,
		Steps:   steps,
	}
	for i, rec := range recs {
		res.Views[PID(i)] = nil
		if rec != nil {
			res.Views[PID(i)] = rec.Views
		}
	}
	return res
}
