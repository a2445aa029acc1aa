// Package msgnet provides an asynchronous message-passing substrate: the
// system model of §2 item 3 (and the base of the §2 item 4 emulation of
// shared memory by message passing when 2f < n).
//
// Each process runs as a coroutine and interacts with the network only
// through Node.Send / Node.Broadcast / Node.Recv / Node.RecvTimeout. A
// cooperative scheduler serializes the steps and plays the asynchrony
// adversary: it chooses which process steps next and, on a receive, which
// in-flight message (per-link FIFO) is delivered. Crashes stop a process
// after a configured number of steps; its in-flight messages remain
// deliverable, as in the standard crash model.
//
// Link-level faults are injected through Config.Faults: a FaultInjector may
// drop, duplicate, or delay any sent message (the elementary behaviours from
// which the Heard-Of line of work derives round predicates). Delayed copies
// break per-link FIFO by design — that is the reordering fault. The loopback
// link (a process sending to itself) is never subjected to injection.
//
// Time is the scheduler step counter. When every live process is blocked but
// a delayed message or a receive deadline is pending, the scheduler
// fast-forwards the step clock to the next such event instead of declaring a
// deadlock; a deadlock is reported (as a *DeadlockError carrying the blocked
// processes and the per-link in-flight message counts) only when no future
// event can unblock anyone.
package msgnet

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/baton"
	"repro/internal/core"
	"repro/internal/obs"
)

// ErrCrashed is returned from a network operation once the scheduler has
// crashed the calling process. Bodies must propagate it and return.
var ErrCrashed = errors.New("msgnet: process crashed")

// ErrMaxSteps is the sentinel matched (via errors.Is) by the *StepLimitError
// Run returns when the step budget is exhausted.
var ErrMaxSteps = errors.New("msgnet: step budget exhausted")

// ErrDeadlock is the sentinel matched (via errors.Is) by the *DeadlockError
// Run returns when every live process is blocked on an empty mailbox — e.g.
// when more than f processes crash under an f-resilient round protocol.
var ErrDeadlock = errors.New("msgnet: all live processes blocked on receive")

// LinkLoad counts undelivered in-flight messages on one directed link.
type LinkLoad struct {
	From, To core.PID
	Queued   int
}

// DeadlockError reports a deadlocked execution with enough context to
// diagnose it: which processes were blocked on an empty mailbox and where
// the undelivered messages were queued (necessarily at processes that had
// already returned or crashed — a blocked receiver's mailbox is empty by
// definition). It matches ErrDeadlock under errors.Is.
type DeadlockError struct {
	// Step is the scheduler step at which the deadlock was detected.
	Step int

	// Blocked lists the processes waiting on an empty mailbox, ascending.
	Blocked []core.PID

	// InFlight lists the non-empty directed link queues, sorted by
	// (From, To). Empty when no message was left undelivered.
	InFlight []LinkLoad
}

// Error implements error.
func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msgnet: deadlock at step %d: processes %v blocked on receive", e.Step, e.Blocked)
	if len(e.InFlight) == 0 {
		b.WriteString("; no messages in flight")
	} else {
		b.WriteString("; in-flight:")
		for _, l := range e.InFlight {
			fmt.Fprintf(&b, " p%d→p%d:%d", l.From, l.To, l.Queued)
		}
	}
	return b.String()
}

// Is reports that a DeadlockError is an ErrDeadlock, so existing
// errors.Is(err, ErrDeadlock) checks keep working.
func (e *DeadlockError) Is(target error) bool { return target == ErrDeadlock }

// StepLimitError reports an execution that exhausted its step budget, with
// the processes that still had operations pending. It matches ErrMaxSteps
// under errors.Is.
type StepLimitError struct {
	// Steps is the configured budget that was exceeded.
	Steps int

	// Pending lists the processes with an operation outstanding when the
	// budget ran out, ascending.
	Pending []core.PID
}

// Error implements error.
func (e *StepLimitError) Error() string {
	return fmt.Sprintf("msgnet: step budget %d exhausted with processes %v still pending", e.Steps, e.Pending)
}

// Is reports that a StepLimitError is an ErrMaxSteps.
func (e *StepLimitError) Is(target error) bool { return target == ErrMaxSteps }

// Envelope is a delivered message.
type Envelope struct {
	From    core.PID
	To      core.PID
	Payload core.Value
}

// Seeded is core.Seeded under the name the benchmark module reads.
var Seeded = core.Seeded

// FaultAction describes what the network does with one sent message: one
// copy is queued per entry of Deliveries, each held back that many scheduler
// steps (0 or less means immediate). An empty Deliveries drops the message.
type FaultAction struct {
	// Deliveries is valid until the next OnSend on the same injector: an
	// injector may answer from a scratch slice it reuses, so the caller
	// reads it at once and keeps no reference to it.
	Deliveries []int

	// Reason tags a drop for observability ("drop", "omission",
	// "partition"); ignored when the message is delivered.
	Reason string
}

// deliverNow is shared by every fault-free send; nothing writes to it.
var deliverNow = FaultAction{Deliveries: []int{0}}

// FaultInjector decides the fate of each sent message. The scheduler calls
// OnSend exactly once per send operation, in execution order, and never for
// the loopback link (from == to). Implementations must be deterministic for
// a fixed seed so executions replay exactly. Calls are serialized but come
// from varying goroutines (see core.Chooser).
type FaultInjector interface {
	OnSend(step int, from, to core.PID) FaultAction
}

// Body is the protocol code one process runs.
type Body func(nd *Node) (core.Value, error)

// Config tunes an execution.
type Config struct {
	// Chooser plays the asynchrony adversary; nil means core.Seeded(1).
	Chooser core.Chooser

	// Crash maps a process to the number of network operations it
	// completes before crashing.
	Crash map[core.PID]int

	// Restart maps a crashed process to the number of scheduler steps
	// after its crash at which a fresh incarnation is spawned (values < 1
	// are treated as 1). The new incarnation runs the same Body with
	// Node.Incarnation() = 2 and the same process identity — the fresh node
	// is bound to the old pid, as a supervised restart re-binds a process
	// to its address. Its operation counter restarts from zero and it is
	// not crashed again. Messages queued for the process while it was down
	// are lost (the mailbox is cleared at spawn); injected-delay copies
	// released after the restart still deliver, as in-flight packets do.
	// Processes without a Crash entry never restart.
	Restart map[core.PID]int

	// MaxSteps bounds total scheduled operations; 0 means 1<<20.
	MaxSteps int

	// Faults, when non-nil, injects link-level faults (drop, duplicate,
	// delay) into every non-loopback send.
	Faults FaultInjector

	// Observer, when non-nil, receives one obs event per scheduled
	// operation ("msgnet.send", "msgnet.recv", "msgnet.timeout"), per
	// injected fault ("faultnet.drop", "faultnet.dup", "faultnet.delay"),
	// per virtual-time jump ("msgnet.advance"), per crash ("msgnet.crash"),
	// per abnormal stop ("msgnet.deadlock", "msgnet.maxsteps") and a final
	// "msgnet.done". Substrate events use round -1: the asynchronous
	// network has steps, not rounds. Calls are serialized but come from
	// varying goroutines (see core.Chooser).
	Observer obs.Observer
}

// Outcome reports a finished execution.
type Outcome struct {
	// Values and Errs record each process's final return; for a restarted
	// process the latest incarnation's return wins, and the superseded
	// incarnation's ErrCrashed unwind is not recorded.
	Values map[core.PID]core.Value
	Errs   map[core.PID]error
	Steps  int

	// Crashed holds every process that crashed, including ones later
	// restarted; Restarted holds the subset that got a fresh incarnation.
	Crashed   core.Set
	Restarted core.Set
}

// Node is one process's handle to the network.
type Node struct {
	// Me is this process's identity.
	Me core.PID

	// N is the number of processes.
	N int

	inc   int // see Incarnation
	sched *sched
	req   request // the one outstanding operation, refilled per operation
}

// Incarnation is 1 for the original process and 2 for the fresh
// incarnation spawned by Config.Restart. Bodies use it to tell a recovery
// path from a boot path.
func (nd *Node) Incarnation() int { return nd.inc }

// Clock returns the global scheduler step at which the node's most recent
// operation executed — a logical timestamp usable for linearizability
// checking and for step-driven timeouts. It is only meaningful between the
// node's own operations; a Handler reads it between the operations of its
// drive, where the baton holder that applied the last one has set it.
func (nd *Node) Clock() int { return nd.req.clock }

// request is a node's one outstanding operation. It lives inside its Node
// and is refilled per operation: the node writes it before posting it and
// yielding, the baton holder that applies it writes res, err and clock
// before waking the node — or, mid-drive, before asking h for the next
// operation and refilling op itself, the node still parked — so the two
// never touch it at the same time.
type request struct {
	op    Op
	h     Handler // nil: wake the node after this operation
	res   Result
	err   error
	clock int // step of the latest operation applied
}

// Send queues a message to process to. Delivery order is per-link FIFO but
// cross-link order is up to the adversary (and injected delays may reorder
// even a single link).
func (nd *Node) Send(to core.PID, payload core.Value) error {
	_, err := nd.drive(Op{Send: true, To: to, Payload: payload}, nil)
	return err
}

// Broadcast sends payload to every process including the sender, as n
// individual Send steps (a crash mid-broadcast yields a partial broadcast,
// exactly the send-omission behaviour of the crash model). The node sleeps
// through all n: each holder that applies one posts the next.
func (nd *Node) Broadcast(payload core.Value) error {
	_, err := nd.drive(Op{Send: true, Payload: payload}, (*broadcast)(nd))
	return err
}

// broadcast is a Node as the Handler of its own Broadcast: the send just
// applied names the next peer and carries the payload.
type broadcast Node

func (b *broadcast) Handle(sent Result) (Op, bool) {
	to := sent.Env.To + 1
	return Op{Send: true, To: to, Payload: sent.Env.Payload}, int(to) < b.N
}

// Recv blocks until the adversary delivers some in-flight message addressed
// to the caller and returns it.
func (nd *Node) Recv() (Envelope, error) {
	res, err := nd.drive(Op{Deadline: NoDeadline}, nil)
	return res.Env, err
}

// RecvTimeout is Recv with a deadline: it returns a message and true, or —
// once the scheduler's step clock reaches the absolute step deadline with
// the caller's mailbox still empty — false. A successful delivery always
// wins over an expired deadline. The timeout itself consumes one scheduled
// operation, so the caller's Clock advances.
//
// Deadlines are what let retry/timeout protocols run on the asynchronous
// substrate without wall time: time is the step counter, and the scheduler
// fast-forwards it when every process is waiting.
func (nd *Node) RecvTimeout(deadline int) (Envelope, bool, error) {
	res, err := nd.drive(Op{Deadline: deadline}, nil)
	return res.Env, res.Got, err
}

// drive posts first and parks until a baton holder wakes the node: after
// first when h is nil, otherwise after the operation at which h said it was
// done, or the one that failed.
func (nd *Node) drive(first Op, h Handler) (Result, error) {
	if err := first.check(nd.N); err != nil {
		return Result{}, err
	}
	nd.req.op, nd.req.h, nd.req.err = first, h, nil
	nd.sched.post(nd.Me, &nd.req)
	nd.sched.baton.Yield(nd.Me)
	if nd.req.err != nil {
		return Result{}, nd.req.err
	}
	return nd.req.res, nil
}

// check validates an operation before the node, or a holder for it, posts it.
func (op Op) check(n int) error {
	if op.Send && (op.To < 0 || int(op.To) >= n) {
		return fmt.Errorf("msgnet: send to invalid process %d", op.To)
	}
	return nil
}

// link is one directed link's FIFO of undelivered payloads: q[head:].
type link struct {
	q    []core.Value
	head int
}

// reset discards the queued payloads and keeps the capacity.
func (l *link) reset() {
	clear(l.q)
	l.q, l.head = l.q[:0], 0
}

// mailbox holds one receiver's undelivered payloads: links[from] is the
// FIFO of the link from→receiver, bit from of the word mask nonEmpty is
// set while that FIFO holds mail, and mail counts the payloads across all
// of them. The receiver's bit in the run's hasMail mask, *owner & bit, is
// set while mail is not 0. A link whose bit is clear holds nothing, not
// even a stale reference.
type mailbox struct {
	links    []link
	nonEmpty []uint64
	mail     int
	owner    *uint64
	bit      uint64
}

func (m *mailbox) push(from core.PID, payload core.Value) {
	m.links[from].q = append(m.links[from].q, payload)
	m.nonEmpty[from>>6] |= 1 << (from & 63)
	m.mail++
	*m.owner |= m.bit
}

// senders appends the processes with queued mail to buf[:0], ascending.
func (m *mailbox) senders(buf []core.PID) []core.PID {
	return appendBits(buf[:0], m.nonEmpty)
}

func (m *mailbox) pop(from core.PID) core.Value {
	l := &m.links[from]
	v := l.q[l.head]
	l.q[l.head] = nil
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
		m.nonEmpty[from>>6] &^= 1 << (from & 63)
	}
	if m.mail--; m.mail == 0 {
		*m.owner &^= m.bit
	}
	return v
}

// clear discards every queued payload.
func (m *mailbox) clear() {
	for wi, w := range m.nonEmpty {
		for ; w != 0; w &= w - 1 {
			m.links[wi<<6|bits.TrailingZeros64(w)].reset()
		}
		m.nonEmpty[wi] = 0
	}
	m.mail = 0
	*m.owner &^= m.bit
}

// appendBits appends the index of every set bit of words to buf, ascending.
func appendBits(buf []core.PID, words []uint64) []core.PID {
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			buf = append(buf, core.PID(wi<<6|bits.TrailingZeros64(w)))
		}
	}
	return buf
}

// proc is the scheduler's state for one pid.
type proc struct {
	pending   *request // the outstanding operation, nil if none
	box       mailbox
	opsDone   int  // operations the current incarnation completed
	crashAt   int  // operations completed before crashing; -1: never
	restarted bool // restart scheduled or spawned
}

// delayedMsg is an in-flight copy held back by an injected delay.
type delayedMsg struct {
	release int // step at which the copy joins the receiver's mailbox
	env     Envelope
}

// restartEvent is a supervised restart scheduled for a crashed process.
type restartEvent struct {
	at  int // step at which the fresh incarnation spawns
	pid core.PID
}

// sched is the scheduler state. Only the baton's holder — the driver, or the
// body whose coroutine is running (internal/baton) — touches it, and a body
// only to post its own operation.
type sched struct {
	cfg   Config // Chooser and MaxSteps defaulted; Observer dropped after a panic
	body  Body
	baton *baton.Baton
	out   *Outcome
	*scratch
	step  int
	abort error // once set, all further ops fail so bodies unwind
}

// scratch is the part of a run's state that only grows: the link queues,
// the per-pid state, the word masks, the delayed and restart queues and
// the chooser's option lists. A run takes it from scratches and puts it
// back cleared, so the runs of a campaign regrow none of it; two live runs
// never share one.
type scratch struct {
	links    []link // receiver-major: procs[i].box.links is links[i*n : (i+1)*n]
	procs    []proc
	posted   []uint64     // bit pid set while procs[pid].pending is not nil
	receive  []uint64     // the posted bits whose operation is a receive
	hasMail  []uint64     // bit pid set while procs[pid].box holds mail
	nonEmpty []uint64     // receiver-major: procs[i].box.nonEmpty is nonEmpty[i*w : (i+1)*w]
	delayed  []delayedMsg // ordered by (release, send order)
	restarts []restartEvent
	runnable []core.PID // the chooser's option lists
	senders  []core.PID
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// lay sizes the scratch for n processes, none crashing yet. The masks are
// all zero: a released scratch's are, and a new one's are new.
func (sc *scratch) lay(n int) {
	w := (n + 63) / 64
	if cap(sc.links) < n*n {
		sc.links = make([]link, n*n)
	}
	if cap(sc.procs) < n {
		sc.procs = make([]proc, n)
	}
	if cap(sc.nonEmpty) < n*w {
		sc.posted, sc.receive, sc.hasMail = make([]uint64, w), make([]uint64, w), make([]uint64, w)
		sc.nonEmpty = make([]uint64, n*w)
	}
	sc.links, sc.procs = sc.links[:n*n], sc.procs[:n]
	sc.posted, sc.receive, sc.hasMail, sc.nonEmpty = sc.posted[:w], sc.receive[:w], sc.hasMail[:w], sc.nonEmpty[:n*w]
	for i := range sc.procs {
		box := mailbox{links: sc.links[i*n : (i+1)*n], nonEmpty: sc.nonEmpty[i*w : (i+1)*w], owner: &sc.hasMail[i>>6], bit: 1 << (i & 63)}
		sc.procs[i] = proc{box: box, crashAt: -1}
	}
}

// post makes req pid's outstanding operation.
func (sc *scratch) post(pid core.PID, req *request) {
	sc.procs[pid].pending = req
	wi, bit := pid>>6, uint64(1)<<(pid&63)
	sc.posted[wi] |= bit
	if req.op.Send {
		sc.receive[wi] &^= bit
	} else {
		sc.receive[wi] |= bit
	}
}

// unpost withdraws pid's outstanding operation.
func (sc *scratch) unpost(pid core.PID) {
	sc.procs[pid].pending = nil
	wi, bit := pid>>6, uint64(1)<<(pid&63)
	sc.posted[wi] &^= bit
	sc.receive[wi] &^= bit
}

// release empties every queue and mailbox mask, keeping their capacity;
// what a run left in them must not reach the next run, nor stay reachable
// after this one.
func (sc *scratch) release() {
	for i := range sc.procs {
		sc.procs[i].box.clear()
	}
	clear(sc.procs)
	clear(sc.delayed)
	sc.delayed = sc.delayed[:0] // the other queues, posted and receive, end every run empty
	scratches.Put(sc)
}

// Run executes body at every process under the configured adversary and
// returns once every body has returned. Goroutines never leak: on crash,
// deadlock, step overflow, an out-of-range chooser answer or a panic — in a
// body, the Chooser, the FaultInjector or the Observer — every blocked and
// subsequent operation is failed with ErrCrashed so bodies unwind, and Run
// waits for them all; a panic is then raised again on Run's caller.
//
// There is no scheduler goroutine: Run spawns the bodies and drives them,
// each on a coroutine, and a body that posts an operation takes the
// scheduler's step itself (internal/baton). A step reads who can step, and
// which senders a receiver's mailbox holds, from word bitmasks — one bit a
// pid, with no per-process scan — and allocates nothing once the queues
// have grown to their working size, which they keep from one run to the
// next: a run that returns, with an error or without, hands its emptied
// queues and zeroed masks to the next Run; one that raises a panic drops
// them. What a step must preserve,
// because fixed-seed executions are pinned to the step, is listed in DESIGN
// §11 ("The virtual substrate step").
func Run(n int, cfg Config, body Body) (*Outcome, error) {
	if n <= 0 {
		return nil, fmt.Errorf("msgnet: invalid process count %d", n)
	}
	s := &sched{cfg: cfg, body: body, scratch: scratches.Get().(*scratch)}
	if s.cfg.Chooser == nil {
		s.cfg.Chooser = core.Seeded(1)
	}
	if s.cfg.MaxSteps == 0 {
		s.cfg.MaxSteps = 1 << 20
	}
	s.out = &Outcome{Crashed: core.NewSet(n), Restarted: core.NewSet(n)}
	s.lay(n)
	for pid, limit := range cfg.Crash {
		if pid >= 0 && int(pid) < n {
			s.procs[pid].crashAt = max(limit, 0)
		}
	}

	s.baton = baton.New(n, s.run)
	for i := 0; i < n; i++ {
		s.spawn(core.PID(i), 1)
	}
	s.out.Values, s.out.Errs = s.baton.Wait()
	s.out.Steps = s.step
	s.release()
	s.scratch = nil // a node used after its run fails on nil, not on the next run's queues
	if ob := cfg.Observer; ob != nil {
		switch {
		case errors.Is(s.abort, ErrDeadlock):
			ob.Observe(obs.Event{Kind: "msgnet.deadlock", R: -1, P: -1, Fields: map[string]any{"step": s.step}})
		case errors.Is(s.abort, ErrMaxSteps):
			ob.Observe(obs.Event{Kind: "msgnet.maxsteps", R: -1, P: -1, Fields: map[string]any{"step": s.step}})
		}
		ob.Observe(obs.Event{Kind: "msgnet.done", R: -1, P: -1, Fields: map[string]any{"steps": s.step, "crashed": s.out.Crashed.Count()}})
	}
	return s.out, s.abort
}

func (s *sched) spawn(pid core.PID, incarnation int) {
	nd := &Node{Me: pid, N: len(s.procs), inc: incarnation, sched: s}
	s.baton.Go(pid, func() (core.Value, error) { return s.body(nd) })
}

// run is the baton's step function: called with every live process parked
// on a posted operation, it returns the one whose operation it applied. A
// restarted process's returns need no care: the crashed incarnation unwinds
// before its successor is spawned, and the baton keeps the latest.
func (s *sched) run(abort error) (core.PID, bool) {
	if abort != nil { // a panic: unwind, and call nothing of the caller's again
		if s.abort == nil {
			s.abort = abort
		}
		s.cfg.Observer = nil
	}
	procs, ob := s.procs, s.cfg.Observer
	for s.baton.Live() > 0 || len(s.restarts) > 0 {
		step := s.step

		// Release the delayed copies whose time has come: the due prefix
		// of a queue kept in (release step, send order).
		k := 0
		for k < len(s.delayed) && s.delayed[k].release <= step {
			procs[s.delayed[k].env.To].box.push(s.delayed[k].env.From, s.delayed[k].env.Payload)
			k++
		}
		s.delayed = slices.Delete(s.delayed, 0, k)

		// Spawn due restarts (all of them when aborting, so every body
		// unwinds and the run terminates). The dead incarnation's queued
		// mail is discarded: messages addressed to a down process are lost.
		// The new incarnations start before the next step.
		spawned := false
		for i := 0; i < len(s.restarts); {
			rs := s.restarts[i]
			if s.abort == nil && rs.at > step {
				i++
				continue
			}
			if ob != nil {
				ob.Observe(obs.Event{Kind: "msgnet.restart", R: -1, P: int(rs.pid), Fields: map[string]any{"step": step, "incarnation": 2}})
			}
			s.restarts = slices.Delete(s.restarts, i, i+1)
			procs[rs.pid].box.clear()
			procs[rs.pid].opsDone = 0
			s.out.Restarted.Add(rs.pid)
			s.spawn(rs.pid, 2)
			spawned = true
		}
		if spawned {
			return -1, false
		}

		// Runnable, ascending: pending senders, pending receivers with
		// mail, and timed receivers whose deadline has passed; only the
		// last are looked at one by one. Aborting, every posted pid.
		runnable := s.runnable[:0]
		for wi, w := range s.posted {
			if s.abort == nil {
				idle := s.receive[wi] &^ s.hasMail[wi]
				w &^= idle
				for ; idle != 0; idle &= idle - 1 {
					if b := bits.TrailingZeros64(idle); step >= procs[wi<<6|b].pending.op.Deadline {
						w |= 1 << b
					}
				}
			}
			for ; w != 0; w &= w - 1 {
				runnable = append(runnable, core.PID(wi<<6|bits.TrailingZeros64(w)))
			}
		}
		s.runnable = runnable
		if len(runnable) == 0 {
			// Nobody can act now; fast-forward virtual time to the next
			// delayed release, receive deadline, or scheduled restart.
			next := -1
			if len(s.delayed) > 0 {
				next = s.delayed[0].release
			}
			for wi, w := range s.posted {
				for ; w != 0; w &= w - 1 {
					if d := procs[wi<<6|bits.TrailingZeros64(w)].pending.op.Deadline; d != NoDeadline && (next < 0 || d < next) {
						next = d
					}
				}
			}
			for _, rs := range s.restarts {
				if next < 0 || rs.at < next {
					next = rs.at
				}
			}
			if next > step {
				if ob != nil {
					ob.Observe(obs.Event{Kind: "msgnet.advance", R: -1, P: -1, Fields: map[string]any{"from": step, "to": next}})
				}
				s.step = next
				if next > s.cfg.MaxSteps {
					s.abort = &StepLimitError{Steps: s.cfg.MaxSteps, Pending: appendBits(nil, s.posted)}
				}
				continue
			}
			s.abort = s.newDeadlockError(step)
			continue
		}

		pick := runnable[0]
		if s.abort == nil {
			idx := s.cfg.Chooser(step, runnable)
			if idx < 0 || idx >= len(runnable) {
				s.abort = fmt.Errorf("msgnet: chooser returned %d for %d options", idx, len(runnable))
				continue
			}
			pick = runnable[idx]
		}
		p := &procs[pick]
		req := p.pending // stays posted until applied: a panic below must not lose it

		switch {
		case s.abort != nil, p.crashAt >= 0 && !p.restarted && p.opsDone >= p.crashAt:
			if s.abort == nil {
				s.out.Crashed.Add(pick)
				if ob != nil {
					ob.Observe(obs.Event{Kind: "msgnet.crash", R: -1, P: int(pick), Fields: map[string]any{"ops": p.opsDone, "step": step}})
				}
				if delay, ok := s.cfg.Restart[pick]; ok {
					s.restarts = append(s.restarts, restartEvent{at: step + max(delay, 1), pid: pick})
					p.restarted = true
				}
			}
			req.err = ErrCrashed
		case req.op.Send:
			env := Envelope{From: pick, To: req.op.To, Payload: req.op.Payload}
			act := deliverNow
			if s.cfg.Faults != nil && env.From != env.To {
				act = s.cfg.Faults.OnSend(step, env.From, env.To)
			}
			p.opsDone++
			if ob != nil {
				ob.Observe(obs.Event{Kind: "msgnet.send", R: -1, P: int(pick), Fields: map[string]any{"to": int(env.To), "step": step}})
			}
			if len(act.Deliveries) == 0 {
				if ob != nil {
					reason := act.Reason
					if reason == "" {
						reason = "drop"
					}
					ob.Observe(obs.Event{Kind: "faultnet.drop", R: -1, P: int(pick), Fields: map[string]any{"to": int(env.To), "reason": reason, "step": step}})
				}
			} else {
				maxDelay := 0
				for _, d := range act.Deliveries {
					if d <= 0 {
						procs[env.To].box.push(env.From, env.Payload)
					} else {
						s.delayed = insertDelayed(s.delayed, delayedMsg{release: step + d, env: env})
						maxDelay = max(maxDelay, d)
					}
				}
				if ob != nil {
					if len(act.Deliveries) > 1 {
						ob.Observe(obs.Event{Kind: "faultnet.dup", R: -1, P: int(pick), Fields: map[string]any{"to": int(env.To), "copies": len(act.Deliveries), "step": step}})
					}
					if maxDelay > 0 {
						ob.Observe(obs.Event{Kind: "faultnet.delay", R: -1, P: int(pick), Fields: map[string]any{"to": int(env.To), "delay": maxDelay, "step": step}})
					}
				}
			}
			req.res = Result{Env: env, Got: true}
		case p.box.mail == 0:
			// Only a receive past its deadline is scheduled with an empty
			// mailbox: the deadline fires.
			p.opsDone++
			if ob != nil {
				ob.Observe(obs.Event{Kind: "msgnet.timeout", R: -1, P: int(pick), Fields: map[string]any{"deadline": req.op.Deadline, "step": step}})
			}
			req.res = Result{}
		default: // a receive with mail
			s.senders = p.box.senders(s.senders)
			sIdx := s.cfg.Chooser(step, s.senders)
			if sIdx < 0 || sIdx >= len(s.senders) {
				s.abort = fmt.Errorf("msgnet: chooser returned %d for %d senders", sIdx, len(s.senders))
				req.err = ErrCrashed
				break
			}
			from := s.senders[sIdx]
			payload := p.box.pop(from)
			p.opsDone++
			if ob != nil {
				ob.Observe(obs.Event{Kind: "msgnet.recv", R: -1, P: int(pick), Fields: map[string]any{"from": int(from), "step": step}})
			}
			req.res = Result{Env: Envelope{From: from, To: pick, Payload: payload}, Got: true}
		}
		s.unpost(pick)
		s.step++
		if s.step > s.cfg.MaxSteps && s.abort == nil {
			s.abort = &StepLimitError{Steps: s.cfg.MaxSteps, Pending: appendBits(nil, s.posted)}
		}
		if req.err != nil {
			return pick, false
		}
		req.clock = step
		if req.h == nil {
			return pick, false
		}
		// Mid-drive: the holder runs what the node would have run between
		// this operation and its next, and posts that one for it. The node
		// is parked throughout, so a panicking handler must find it posted.
		s.post(pick, req)
		var more bool
		if req.op, more = req.h.Handle(req.res); more {
			req.err = req.op.check(len(procs))
		}
		if !more || req.err != nil {
			s.unpost(pick)
			return pick, false
		}
		s.post(pick, req) // again, for the kind of the operation h asked for
	}
	return -1, true
}

// insertDelayed adds dm behind every queued copy released no later than it:
// the queue stays ordered by (release step, send order).
func insertDelayed(q []delayedMsg, dm delayedMsg) []delayedMsg {
	i := len(q)
	for i > 0 && q[i-1].release > dm.release {
		i--
	}
	return slices.Insert(q, i, dm)
}

// newDeadlockError snapshots the blocked processes and the per-link
// in-flight counts, by (From, To), at the moment of deadlock.
func (s *sched) newDeadlockError(step int) *DeadlockError {
	procs := s.procs
	e := &DeadlockError{Step: step, Blocked: appendBits(nil, s.posted)}
	for from := range procs {
		for to := range procs {
			if l := procs[to].box.links[from]; l.head < len(l.q) {
				e.InFlight = append(e.InFlight, LinkLoad{From: core.PID(from), To: core.PID(to), Queued: len(l.q) - l.head})
			}
		}
	}
	return e
}
