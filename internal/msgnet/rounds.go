package msgnet

import (
	"fmt"

	"repro/internal/core"
)

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

// Gather is one process's receive side of the §2 item 3 protocol: it
// collects the current round's messages up to a quorum, buffering those
// that are early and discarding those that are late (the Bracha and Coan
// construction the paper cites).
//
// A round's gathering is one Drive with the Gather as its Handler: on a
// *Node the process parks once for the whole view, and the baton holders
// file each message it receives.
type Gather struct {
	sub    Substrate
	future *early // the views of rounds ahead of the caller's

	// The drive of the round being gathered. The two counts are int32 to
	// keep a Gather at 48 bytes: as a node's Handler it is on the heap,
	// one per process of every run.
	view      map[core.PID]core.Value
	deadline  int
	r, quorum int32
}

// early is the buffered view of a round ahead of the caller's, one link of
// a list that holds a round or two. A link whose view has been taken (nil)
// is free for the next early round.
type early struct {
	r    int
	view map[core.PID]core.Value
	next *early
}

// NewGather returns the gatherer for one process on sub.
func NewGather(sub Substrate, quorum int) *Gather {
	return &Gather{sub: sub, quorum: int32(quorum)}
}

// Round receives until the view of round r holds quorum messages (full),
// or until watchdogTicks have passed on the substrate's clock. 0 ticks
// means no watchdog: plain Recv, with the substrate's deadlock detection
// as the only backstop — a far RecvTimeout deadline would instead let
// the virtual scheduler fast-forward its clock to it.
func (g *Gather) Round(r, watchdogTicks int) (view map[core.PID]core.Value, full bool, err error) {
	view = g.take(r)
	if view == nil {
		view = make(map[core.PID]core.Value)
	}
	if len(view) >= int(g.quorum) {
		return view, true, nil
	}
	g.r, g.view, g.deadline = int32(r), view, NoDeadline
	if watchdogTicks != 0 {
		g.deadline = g.sub.Clock() + watchdogTicks
	}
	last, err := Drive(g.sub, Op{Deadline: g.deadline}, g)
	if err == nil && last.Got {
		if _, ok := last.Env.Payload.(RoundMsg); !ok {
			err = fmt.Errorf("msgnet: foreign payload %T", last.Env.Payload)
		}
	}
	return view, err == nil && len(view) >= int(g.quorum), err
}

// Handle files the message just received and asks for the next, until the
// view is full, the deadline has passed or a payload is foreign (Round
// tells the three apart by the last Result).
func (g *Gather) Handle(last Result) (Op, bool) {
	m, ok := last.Env.Payload.(RoundMsg)
	if !last.Got || !ok {
		return Op{}, false
	}
	switch r := int(g.r); {
	case m.Round == r:
		g.view[last.Env.From] = m.Value
	case m.Round > r: // early: buffer
		g.ahead(m.Round)[last.Env.From] = m.Value
	default: // late: discard
	}
	return Op{Deadline: g.deadline}, len(g.view) < int(g.quorum)
}

// ahead returns the buffered view of round r, ahead of the caller's,
// starting it in a free link, or a new one, if there is none.
func (g *Gather) ahead(r int) map[core.PID]core.Value {
	var free *early
	for e := g.future; e != nil; e = e.next {
		switch {
		case e.view == nil:
			free = e
		case e.r == r:
			return e.view
		}
	}
	if free == nil {
		free = &early{next: g.future}
		g.future = free
	}
	free.r, free.view = r, make(map[core.PID]core.Value)
	return free.view
}

// take returns round r's buffered view (nil: none) and frees its link.
func (g *Gather) take(r int) map[core.PID]core.Value {
	for e := g.future; e != nil; e = e.next {
		if e.r == r && e.view != nil {
			view := e.view
			e.view = nil
			return view
		}
	}
	return nil
}

// Newest returns the highest round with a buffered early message (0 when
// there is none): where a process that fell behind should resume.
func (g *Gather) Newest() int {
	newest := 0
	for e := g.future; e != nil; e = e.next {
		if e.view != nil {
			newest = max(newest, e.r)
		}
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
// asynchronous protocol of §2 item 3, on any Substrate: core.RunRounds
// with the message-passing exchange — broadcast the round message, gather
// n−f current-round messages, take as D(i,r) whoever was missing when the
// process advanced. The SAME body drives the virtual scheduler (ticks are
// steps), a reliablelink.Link decorating it, and the TCP mesh (ticks are
// milliseconds), so lost, shed and late messages degrade into suspicions
// identically on all three.
//
// A round still short of its quorum after watchdogTicks (0: no watchdog,
// see Gather.Round) is given up as a Stall, reported to onStall (if
// non-nil) as it happens. After the last round the process lingers
// lingerTicks, receiving and discarding, so that whatever lives under
// RecvTimeout — acks, retransmissions, queued frames — keeps serving
// slower peers. The record and stalls so far accompany any error.
func RunSubstrateRounds(sub Substrate, f, rounds, watchdogTicks, lingerTicks int, emit core.RoundEmit, onStall func(Stall)) (*core.RoundRec, []Stall, error) {
	n, me := sub.Size(), sub.PID()
	if err := core.CheckShape(n, f, rounds); err != nil {
		return &core.RoundRec{}, nil, err
	}
	var stalls []Stall
	g := NewGather(sub, n-f)
	rec, err := core.RunRounds(me, n, rounds, emit, func(r int, v core.Value) (map[core.PID]core.Value, core.Set, error) {
		if err := sub.Broadcast(RoundMsg{Round: r, Value: v}); err != nil {
			return nil, core.Set{}, err
		}
		got, full, err := g.Round(r, watchdogTicks)
		if err != nil {
			return nil, core.Set{}, err
		}
		d := Unheard(n, got)
		if !full {
			s := Stall{P: me, Round: r, Missing: d.Members(), Step: sub.Clock()}
			stalls = append(stalls, s)
			if onStall != nil {
				onStall(s)
			}
		}
		return got, d, nil
	})
	if err != nil {
		return rec, stalls, err
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
func RunRounds(n, f, rounds int, cfg Config, emit core.RoundEmit) (*core.RoundOutcome, error) {
	if err := core.CheckShape(n, f, rounds); err != nil {
		return nil, err
	}
	if len(cfg.Crash) > f {
		return nil, fmt.Errorf("msgnet: %d crashes exceed resilience f=%d", len(cfg.Crash), f)
	}
	recs := make([]*core.RoundRec, n)
	out, err := Run(n, cfg, func(nd *Node) (core.Value, error) {
		rec, _, err := RunSubstrateRounds(nd, f, rounds, 0, 0, emit, nil)
		recs[nd.Me] = rec
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	return core.AssembleRoundOutcome(n, recs, out.Crashed, out.Steps), nil
}
