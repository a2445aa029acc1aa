// Package abd implements the Attiya–Bar-Noy–Dolev emulation of a
// single-writer multi-reader atomic register over asynchronous message
// passing with a minority of crash failures (2f < n) — the paper's
// reference [22], which §2 item 4 invokes ("to see the implementation of
// shared-memory by message-passing in the context of RRFDs...").
//
// The protocol is the classic one:
//
//	Write(v):  the writer picks the next sequence number, broadcasts
//	           STORE(seq, v), and returns after n−f acknowledgments.
//	Read():    the reader broadcasts QUERY, collects n−f replies, picks
//	           the pair with the highest sequence number, write-backs
//	           STORE(seq, v) to n−f processes (the atomicity phase), and
//	           returns v.
//
// Every process doubles as a replica server; while an operation waits for
// its quorum, incoming requests keep being served, so operations never
// deadlock each other. Any two quorums of size n−f intersect (2f < n), so a
// read sees every completed write, and the write-back makes reads
// linearizable too — the tests check real-time linearizability using the
// substrate's logical clock.
package abd

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/msgnet"
)

type msgKind int

const (
	kindStore msgKind = iota + 1
	kindStoreAck
	kindQuery
	kindQueryReply
	kindDone
)

// message is the ABD wire format.
type message struct {
	kind msgKind
	op   int // originator's operation counter, matching acks to ops
	seq  int
	val  core.Value
}

// Op records one completed register operation with its logical-time
// interval, for linearizability checking.
type Op struct {
	// Proc is the invoking process.
	Proc core.PID

	// Kind is "write" or "read".
	Kind string

	// Seq and Val are the operation's sequence number and value (for a
	// read, the returned pair).
	Seq int
	Val core.Value

	// Start and End are the scheduler steps of the operation's first and
	// last network event.
	Start, End int
}

// Register is a process's handle to the emulated SWMR register. The writer
// is process 0.
type Register struct {
	nd       *msgnet.Node
	f        int
	seq      int // writer's sequence counter
	curSeq   int // replica state
	curVal   core.Value
	opCount  int
	doneSeen core.Set
	log      []Op
}

// newRegister returns the handle; callers use Run.
func newRegister(nd *msgnet.Node, f int) *Register {
	return &Register{nd: nd, f: f, doneSeen: core.NewSet(nd.N)}
}

// Writer reports whether this process is the register's (single) writer.
func (r *Register) Writer() bool { return r.nd.Me == 0 }

// quorum is the replies an operation waits for (counting the self-reply).
func (r *Register) quorum() int { return r.nd.N - r.f }

// Write stores v in the register. Only the writer may call it.
func (r *Register) Write(v core.Value) error {
	if !r.Writer() {
		return fmt.Errorf("abd: process %d is not the writer", r.nd.Me)
	}
	r.seq++
	r.opCount++
	start := r.nd.Clock()
	if err := r.store(r.seq, v, r.opCount); err != nil {
		return err
	}
	r.log = append(r.log, Op{
		Proc: r.nd.Me, Kind: "write", Seq: r.seq, Val: v,
		Start: start, End: r.nd.Clock(),
	})
	return nil
}

// Read returns the register's value.
func (r *Register) Read() (core.Value, error) {
	r.opCount++
	op := r.opCount
	start := r.nd.Clock()
	if err := r.nd.Broadcast(message{kind: kindQuery, op: op}); err != nil {
		return nil, err
	}
	replies := 0
	bestSeq, bestVal := -1, core.Value(nil)
	for replies < r.quorum() {
		env, err := r.nd.Recv()
		if err != nil {
			return nil, err
		}
		m := env.Payload.(message)
		if m.kind == kindQueryReply && m.op == op {
			replies++
			if m.seq > bestSeq {
				bestSeq, bestVal = m.seq, m.val
			}
			continue
		}
		if err := r.serve(env); err != nil {
			return nil, err
		}
	}
	// Write-back phase: atomicity.
	r.opCount++
	if err := r.store(bestSeq, bestVal, r.opCount); err != nil {
		return nil, err
	}
	r.log = append(r.log, Op{
		Proc: r.nd.Me, Kind: "read", Seq: bestSeq, Val: bestVal,
		Start: start, End: r.nd.Clock(),
	})
	return bestVal, nil
}

// store broadcasts STORE(seq, v) and awaits a quorum of acks, serving
// concurrent requests meanwhile.
func (r *Register) store(seq int, v core.Value, op int) error {
	if err := r.nd.Broadcast(message{kind: kindStore, op: op, seq: seq, val: v}); err != nil {
		return err
	}
	acks := 0
	for acks < r.quorum() {
		env, err := r.nd.Recv()
		if err != nil {
			return err
		}
		m := env.Payload.(message)
		if m.kind == kindStoreAck && m.op == op {
			acks++
			continue
		}
		if err := r.serve(env); err != nil {
			return err
		}
	}
	return nil
}

// serve handles one replica-side message.
func (r *Register) serve(env msgnet.Envelope) error {
	m, ok := env.Payload.(message)
	if !ok {
		return fmt.Errorf("abd: foreign payload %T", env.Payload)
	}
	switch m.kind {
	case kindStore:
		if m.seq > r.curSeq {
			r.curSeq, r.curVal = m.seq, m.val
		}
		return r.nd.Send(env.From, message{kind: kindStoreAck, op: m.op})
	case kindQuery:
		return r.nd.Send(env.From, message{kind: kindQueryReply, op: m.op, seq: r.curSeq, val: r.curVal})
	case kindDone:
		r.doneSeen.Add(env.From)
		return nil
	case kindStoreAck, kindQueryReply:
		// A stale ack from an earlier quorum round: ignore.
		return nil
	default:
		return fmt.Errorf("abd: unknown message kind %d", m.kind)
	}
}

// Script is the per-process workload: invoked once the register is ready,
// it performs operations and returns. Ops it performed are recorded in the
// register's log.
type Script func(r *Register) error

// Outcome reports a Run.
type Outcome struct {
	// Log is every completed operation, across processes.
	Log []Op

	// Crashed is the set of processes crashed by the scheduler.
	Crashed core.Set
}

// Run executes the script at every process over the emulated register with
// resilience f (2f < n required), then shuts the system down with a DONE
// barrier among the processes the configuration does not crash. The
// configuration may crash at most f processes.
func Run(n, f int, cfg msgnet.Config, script Script) (*Outcome, error) {
	if 2*f >= n {
		return nil, fmt.Errorf("abd: need 2f < n, got n=%d f=%d", n, f)
	}
	if len(cfg.Crash) > f {
		return nil, fmt.Errorf("abd: %d crashes exceed f=%d", len(cfg.Crash), f)
	}
	expectDone := core.NewSet(n)
	for i := 0; i < n; i++ {
		if _, crashes := cfg.Crash[core.PID(i)]; !crashes {
			expectDone.Add(core.PID(i))
		}
	}

	regs := make([]*Register, n)
	out, err := msgnet.Run(n, cfg, func(nd *msgnet.Node) (core.Value, error) {
		r := newRegister(nd, f)
		regs[nd.Me] = r
		if err := script(r); err != nil {
			return nil, err
		}
		// Shutdown barrier: announce DONE, keep serving until every
		// process expected to survive has announced too.
		if err := nd.Broadcast(message{kind: kindDone}); err != nil {
			return nil, err
		}
		r.doneSeen.Add(nd.Me)
		for !expectDone.IsSubset(r.doneSeen) {
			env, err := nd.Recv()
			if err != nil {
				return nil, err
			}
			if err := r.serve(env); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Outcome{Crashed: out.Crashed}
	for pid, procErr := range out.Errs {
		if !errors.Is(procErr, msgnet.ErrCrashed) {
			return nil, fmt.Errorf("abd: process %d: %w", pid, procErr)
		}
	}
	for i := 0; i < n; i++ {
		if regs[i] != nil {
			res.Log = append(res.Log, regs[i].log...)
		}
	}
	return res, nil
}
