package msgnet

import (
	"fmt"

	"repro/internal/core"
)

// RoundEmit computes the message process me emits at round r given the
// previous round's receptions (nil at round 1) and suspect set.
type RoundEmit func(me core.PID, r int, received map[core.PID]core.Value, suspects core.Set) core.Value

// RoundOutcome is the result of running the message-passing round protocol.
type RoundOutcome struct {
	// Trace is the induced RRFD trace: Active at round r is the set of
	// processes that completed the round, Suspects[i] is D(i,r).
	Trace *core.Trace

	// Views[i][r-1] maps each process in S(i,r) to its round-r message.
	Views map[core.PID][]map[core.PID]core.Value

	// Crashed is the set of processes crashed by the scheduler.
	Crashed core.Set

	// Steps is the number of network operations scheduled.
	Steps int
}

// RoundMsg is the round protocol's payload on every substrate.
type RoundMsg struct {
	Round int
	Value core.Value
}

// Stall records one watchdog firing: process P gave up waiting in Round,
// still missing the round messages of Missing, at tick Step of its
// substrate's clock (a scheduler step, or a millisecond on the network).
type Stall struct {
	P       core.PID
	Round   int
	Missing []core.PID
	Step    int
}

// String renders the stall for diagnostics.
func (s Stall) String() string {
	return fmt.Sprintf("p%d stalled in round %d waiting on %v (step %d)", s.P, s.Round, s.Missing, s.Step)
}

// ShapeError rejects a round-protocol shape outside eq. (3): the n−f
// quorum needs n > 0 and 0 ≤ f < n (and rounds ≥ 0).
type ShapeError struct{ N, F, Rounds int }

func (e *ShapeError) Error() string {
	return fmt.Sprintf("msgnet: invalid round-protocol shape n=%d f=%d rounds=%d", e.N, e.F, e.Rounds)
}

// CheckShape is the one shape validation: every round runner calls it
// before it builds anything, and the loop itself on entry.
func CheckShape(n, f, rounds int) error {
	if n <= 0 || f < 0 || f >= n || rounds < 0 {
		return &ShapeError{n, f, rounds}
	}
	return nil
}

// Gather is one process's receive side of the §2 item 3 protocol: it
// collects the current round's messages up to a quorum, buffering those
// that are early and discarding those that are late (the Bracha and Coan
// construction the paper cites).
type Gather struct {
	sub    Substrate
	quorum int
	future map[int]map[core.PID]core.Value // rounds ahead of the caller's
}

// NewGather returns the gatherer for one process on sub.
func NewGather(sub Substrate, quorum int) *Gather {
	return &Gather{sub: sub, quorum: quorum, future: make(map[int]map[core.PID]core.Value)}
}

// Round receives until the view of round r holds quorum messages (full),
// or until watchdogTicks have passed on the substrate's clock. 0 ticks
// means no watchdog: plain Recv, with the substrate's deadlock detection
// as the only backstop — a far RecvTimeout deadline would instead let
// the virtual scheduler fast-forward its clock to it.
func (g *Gather) Round(r, watchdogTicks int) (view map[core.PID]core.Value, full bool, err error) {
	view = g.future[r]
	if view == nil {
		view = make(map[core.PID]core.Value)
	}
	delete(g.future, r)
	deadline := g.sub.Clock() + watchdogTicks
	for len(view) < g.quorum {
		var env Envelope
		arrived := true
		if watchdogTicks == 0 {
			env, err = g.sub.Recv()
		} else {
			env, arrived, err = g.sub.RecvTimeout(deadline)
		}
		if err != nil || !arrived {
			return view, false, err
		}
		m, ok := env.Payload.(RoundMsg)
		if !ok {
			return view, false, fmt.Errorf("msgnet: foreign payload %T", env.Payload)
		}
		switch {
		case m.Round == r:
			view[env.From] = m.Value
		case m.Round > r: // early: buffer
			if g.future[m.Round] == nil {
				g.future[m.Round] = make(map[core.PID]core.Value)
			}
			g.future[m.Round][env.From] = m.Value
		default: // late: discard
		}
	}
	return view, true, nil
}

// Newest returns the highest round with a buffered early message (0 when
// there is none): where a process that fell behind should resume.
func (g *Gather) Newest() int {
	newest := 0
	for r := range g.future {
		newest = max(newest, r)
	}
	return newest
}

// Unheard returns D(i,r) for a round-r view: every process whose round
// message the view lacks.
func Unheard(n int, view map[core.PID]core.Value) core.Set {
	d := core.FullSet(n)
	for p := range view {
		d.Remove(p)
	}
	return d
}

// RunSubstrateRounds is one process's side of the round-based f-resilient
// asynchronous protocol of §2 item 3, on any Substrate: each round it
// broadcasts its round message, gathers n−f current-round messages, and
// records as D(i,r) whoever was missing when it advanced. The SAME body
// drives the virtual scheduler (ticks are steps), a reliablelink.Link
// decorating it, and the TCP mesh (ticks are milliseconds), so lost, shed
// and late messages degrade into suspicions identically on all three.
//
// A round still short of its quorum after watchdogTicks (0: no watchdog,
// see Gather.Round) is given up as a Stall, reported to onStall (if
// non-nil) as it happens. After the last round the process lingers
// lingerTicks, receiving and discarding, so that whatever lives under
// RecvTimeout — acks, retransmissions, queued frames — keeps serving
// slower peers. The record and stalls so far accompany any error.
func RunSubstrateRounds(sub Substrate, f, rounds, watchdogTicks, lingerTicks int, emit RoundEmit, onStall func(Stall)) (*RoundRec, []Stall, error) {
	n, me := sub.Size(), sub.PID()
	rec := &RoundRec{}
	if err := CheckShape(n, f, rounds); err != nil {
		return rec, nil, err
	}
	if emit == nil {
		emit = func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
			return fmt.Sprintf("p%d@r%d", me, r)
		}
	}
	var stalls []Stall
	g := NewGather(sub, n-f)
	var prevMsgs map[core.PID]core.Value
	prevSus := core.NewSet(n)
	for r := 1; r <= rounds; r++ {
		if err := sub.Broadcast(RoundMsg{Round: r, Value: emit(me, r, prevMsgs, prevSus)}); err != nil {
			return rec, stalls, err
		}
		got, full, err := g.Round(r, watchdogTicks)
		if err != nil {
			return rec, stalls, err
		}
		d := Unheard(n, got)
		if !full {
			s := Stall{P: me, Round: r, Missing: d.Members(), Step: sub.Clock()}
			stalls = append(stalls, s)
			if onStall != nil {
				onStall(s)
			}
		}
		rec.Complete(r, got, d)
		prevMsgs, prevSus = got, d
	}
	for until := sub.Clock() + lingerTicks; sub.Clock() < until; {
		if _, _, err := sub.RecvTimeout(until); err != nil {
			return rec, stalls, err
		}
	}
	return rec, stalls, nil
}

// RunRounds executes the round protocol on the virtual scheduler with no
// reliability layer and no watchdog: a process waits for its n−f quorum
// however long the adversary takes.
//
// The induced trace satisfies eq. (3) — |D(i,r)| ≤ f — by construction; the
// tests validate exactly that, and that it can violate the shared-memory
// predicate eq. (4), which is the paper's point about network partitions
// when 2f ≥ n.
func RunRounds(n, f, rounds int, cfg Config, emit RoundEmit) (*RoundOutcome, error) {
	if err := CheckShape(n, f, rounds); err != nil {
		return nil, err
	}
	if len(cfg.Crash) > f {
		return nil, fmt.Errorf("msgnet: %d crashes exceed resilience f=%d", len(cfg.Crash), f)
	}
	recs := make([]*RoundRec, n)
	out, err := Run(n, cfg, func(nd *Node) (core.Value, error) {
		rec, _, err := RunSubstrateRounds(nd, f, rounds, 0, 0, emit, nil)
		recs[nd.Me] = rec
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	return AssembleRoundOutcome(n, recs, out.Crashed, out.Steps), nil
}
