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

// NoDeadline is the Deadline of a receive that waits for ever.
const NoDeadline = int(^uint(0) >> 1)

// Op is one substrate operation: send Payload to To, or — Send false —
// receive until the absolute tick Deadline (NoDeadline: Recv).
type Op struct {
	Send     bool
	To       core.PID
	Payload  core.Value
	Deadline int
}

// Result is what an Op yielded: the envelope sent or received, and whether
// there is one — Got is false only for a receive whose deadline passed.
type Result struct {
	Env Envelope
	Got bool
}

// Handler is the code between the operations of a drive: given what the
// last one yielded it names the next, or says (more false) that the drive
// is over.
//
// On the virtual scheduler a Handler does not run on its process's goroutine
// but on whichever one holds the baton and applied the operation, with the
// process parked and its Clock already set to that step: calls are
// serialized and ordered by happens-before like a Chooser's, so a Handler
// may touch the state of its own node and link unsynchronised, but may not
// depend on goroutine identity and must ask only for operations of its own
// node. A panic in it aborts the run like a panic in the body.
type Handler interface {
	Handle(last Result) (next Op, more bool)
}

// Drive performs first, hands its result to h, performs what h asks for
// next, and so on until h is done or an operation fails; it returns the
// last result, or the error — after which h is not called again.
//
// On a *Node the whole drive is one park: every operation is posted and its
// result handled by the baton holder of the moment (see Handler), and the
// caller is woken once, at the end. On any other Substrate it is the loop
// below, on the caller's goroutine — the reference the first must match,
// operation for operation.
func Drive(sub Substrate, first Op, h Handler) (Result, error) {
	if nd, ok := sub.(*Node); ok {
		return nd.drive(first, h)
	}
	for op := first; ; {
		res := Result{Got: true}
		var err error
		switch {
		case op.Send:
			res.Env = Envelope{From: sub.PID(), To: op.To, Payload: op.Payload}
			err = sub.Send(op.To, op.Payload)
		case op.Deadline == NoDeadline:
			res.Env, err = sub.Recv()
		default:
			res.Env, res.Got, err = sub.RecvTimeout(op.Deadline)
		}
		if err != nil {
			return Result{}, err
		}
		next, more := h.Handle(res)
		if !more {
			return res, nil
		}
		op = next
	}
}
