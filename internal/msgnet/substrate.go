package msgnet

import "repro/internal/core"

// Substrate is the node-facing surface of a message-passing substrate:
// everything a protocol body needs, and nothing about how the messages
// actually move. The virtual-clock scheduler of this package implements
// it with steps; internal/netsub implements it with length-prefixed
// frames over real net.Conn and a millisecond clock; reliablelink.Link
// decorates either. Protocol bodies written against Substrate —
// RunSubstrateRounds first among them — run unchanged on all three.
//
// Clock semantics are substrate-relative: Clock returns ticks (scheduler
// steps here, milliseconds since node start on the network), and the
// deadline passed to RecvTimeout is an absolute tick on the same clock.
// What a body may assume is only monotonicity — which is exactly what a
// round watchdog needs to degrade a stalled round into D(i,r) suspicions
// on either substrate.
type Substrate interface {
	// PID is this process's identity.
	PID() core.PID

	// Size is the number of processes.
	Size() int

	// Clock is the substrate's monotonic tick counter.
	Clock() int

	// Send queues a message to process to.
	Send(to core.PID, payload core.Value) error

	// Broadcast sends payload to every process including the sender.
	Broadcast(payload core.Value) error

	// Recv blocks until some message addressed to the caller arrives.
	Recv() (Envelope, error)

	// RecvTimeout is Recv bounded by an absolute tick deadline: it
	// returns a message and true, or false once the clock passes the
	// deadline with nothing delivered.
	RecvTimeout(deadline int) (Envelope, bool, error)
}

// PID implements Substrate (the Me field remains the idiomatic accessor
// for code that knows it has a *Node).
func (nd *Node) PID() core.PID { return nd.Me }

// Size implements Substrate.
func (nd *Node) Size() int { return nd.N }

var _ Substrate = (*Node)(nil)

// RoundRec is one process's record of a round-protocol execution: its
// per-round suspect sets (D(i,r)) and views (S(i,r) with payloads),
// indexed by r−1. A round the process never completed — recovery skips
// rounds to catch up — holds the zero Set and a nil view. Every runner
// fills one RoundRec per process and hands them to AssembleRoundOutcome.
type RoundRec struct {
	Dsets []core.Set
	Views []map[core.PID]core.Value
}

// Complete records that the process finished round r with the given view
// and D(i,r), leaving any rounds it skipped on the way marked incomplete.
func (rec *RoundRec) Complete(r int, view map[core.PID]core.Value, d core.Set) {
	for len(rec.Dsets) < r {
		rec.Dsets = append(rec.Dsets, core.Set{})
		rec.Views = append(rec.Views, nil)
	}
	rec.Dsets[r-1], rec.Views[r-1] = d, view
}

// completed reports whether the process finished round r.
func (rec *RoundRec) completed(r int) bool {
	return rec != nil && len(rec.Dsets) >= r && rec.Dsets[r-1].Universe() > 0
}

// AssembleRoundOutcome builds the induced RRFD trace from per-process
// round records: Active at round r is every process that completed r,
// Suspects[i] is its D(i,r), Deliver[i] the complement, and a process
// without the round is marked Crashed when the substrate crashed it. The
// trace runs to the last round anybody completed. Nil entries of recs are
// treated as empty records.
func AssembleRoundOutcome(n int, recs []*RoundRec, crashed core.Set, steps int) *RoundOutcome {
	res := &RoundOutcome{
		Trace:   core.NewTrace(n),
		Views:   make(map[core.PID][]map[core.PID]core.Value, n),
		Crashed: crashed,
		Steps:   steps,
	}
	rounds := 0
	for i, rec := range recs {
		res.Views[core.PID(i)] = nil
		if rec != nil {
			res.Views[core.PID(i)] = rec.Views
			rounds = max(rounds, len(rec.Dsets))
		}
	}
	for r := 1; r <= rounds; r++ {
		rr := core.RoundRecord{
			R:        r,
			Suspects: make([]core.Set, n),
			Deliver:  make([]core.Set, n),
			Active:   core.NewSet(n),
			Crashed:  core.NewSet(n),
		}
		for i := 0; i < n; i++ {
			pid := core.PID(i)
			if recs[i].completed(r) {
				rr.Active.Add(pid)
				rr.Suspects[i] = recs[i].Dsets[r-1]
				rr.Deliver[i] = recs[i].Dsets[r-1].Complement()
			} else {
				rr.Suspects[i] = core.NewSet(n)
				rr.Deliver[i] = core.NewSet(n)
				if crashed.Has(pid) {
					rr.Crashed.Add(pid)
				}
			}
		}
		res.Trace.Append(rr)
	}
	return res
}
