// Package msgnet provides an asynchronous message-passing substrate: the
// system model of §2 item 3 (and the base of the §2 item 4 emulation of
// shared memory by message passing when 2f < n).
//
// Each process runs as a goroutine and interacts with the network only
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
	"slices"
	"strings"

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

// Chooser picks among scheduling options: it is called with the global step
// number and a sorted option list (process IDs when picking who steps,
// sender IDs when picking which queued message a receive returns) and
// returns an index into the list. The list is the scheduler's scratch: it
// is valid only during the call and must not be retained or modified.
//
// Calls are serialized and ordered by happens-before, but arrive on
// whichever process goroutine holds the scheduler: a Chooser may keep
// unsynchronized state (Seeded does) but may not depend on goroutine
// identity (t.FailNow, runtime.LockOSThread). The same holds for a
// FaultInjector and for Config.Observer.
type Chooser func(step int, options []core.PID) int

// Seeded returns a deterministic pseudo-random chooser.
func Seeded(seed int64) Chooser {
	s := uint64(seed)*0x9E3779B97F4A7C15 + 1
	return func(step int, options []core.PID) int {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return int((s * 2685821657736338717 >> 33) % uint64(len(options)))
	}
}

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
// from varying goroutines (see Chooser).
type FaultInjector interface {
	OnSend(step int, from, to core.PID) FaultAction
}

// Body is the protocol code one process runs.
type Body func(nd *Node) (core.Value, error)

// Config tunes an execution.
type Config struct {
	// Chooser plays the asynchrony adversary; nil means Seeded(1).
	Chooser Chooser

	// Crash maps a process to the number of network operations it
	// completes before crashing.
	Crash map[core.PID]int

	// Restart maps a crashed process to the number of scheduler steps
	// after its crash at which a fresh incarnation is spawned (values < 1
	// are treated as 1). The new incarnation runs the same Body with
	// Node.Incarnation = 2 and the same process identity — the fresh node
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
	// varying goroutines (see Chooser).
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

	// Incarnation is 1 for the original process and 2 for the fresh
	// incarnation spawned by Config.Restart. Bodies use it to tell a
	// recovery path from a boot path.
	Incarnation int

	sched *sched
	req   request // the one outstanding operation, refilled per operation
}

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
	nd.sched.procs[nd.Me].pending = &nd.req
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

// mailbox holds one receiver's undelivered payloads: links[from] is the
// FIFO of the link from→receiver and mail counts the payloads across all
// of them, so "has mail" is a compare.
type mailbox struct {
	links []link
	mail  int
}

func (m *mailbox) push(from core.PID, payload core.Value) {
	m.links[from].q = append(m.links[from].q, payload)
	m.mail++
}

// senders appends the processes with queued mail to buf[:0], ascending.
func (m *mailbox) senders(buf []core.PID) []core.PID {
	buf = buf[:0]
	for from := range m.links {
		if l := &m.links[from]; l.head < len(l.q) {
			buf = append(buf, core.PID(from))
		}
	}
	return buf
}

func (m *mailbox) pop(from core.PID) core.Value {
	l := &m.links[from]
	v := l.q[l.head]
	l.q[l.head] = nil
	l.head++
	if l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
	m.mail--
	return v
}

// clear discards every queued payload.
func (m *mailbox) clear() {
	clear(m.links)
	m.mail = 0
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

// sched is the scheduler state. No goroutine owns it: it is handed from one
// baton holder to the next (internal/baton), and only the holder touches it
// — but for a node posting into its own procs[pid].pending.
type sched struct {
	cfg   Config // Chooser and MaxSteps defaulted; Observer dropped after a panic
	body  Body
	baton *baton.Baton
	out   *Outcome

	procs    []proc
	delayed  []delayedMsg // ordered by (release, send order)
	restarts []restartEvent
	runnable []core.PID // scratch: the chooser's option lists
	senders  []core.PID
	spawning []core.PID // restarts made ready, spawned at the end of the step
	step     int
	abort    error // once set, all further ops fail so bodies unwind
}

// Run executes body at every process under the configured adversary and
// returns once every body has returned. Goroutines never leak: on crash,
// deadlock, step overflow, an out-of-range chooser answer or a panic — in a
// body, the Chooser, the FaultInjector or the Observer — every blocked and
// subsequent operation is failed with ErrCrashed so bodies unwind, and Run
// waits for them all; a panic is then raised again on Run's caller.
//
// There is no scheduler goroutine: Run spawns the bodies and waits, and the
// process that was the last to stop computing takes the scheduler's steps
// (internal/baton). A step does O(n) work over per-pid slices and allocates
// nothing once the queues have grown to their working size. What it must
// preserve, because fixed-seed executions are pinned to the step, is
// listed in DESIGN §11 ("The virtual substrate step").
func Run(n int, cfg Config, body Body) (*Outcome, error) {
	if n <= 0 {
		return nil, fmt.Errorf("msgnet: invalid process count %d", n)
	}
	s := &sched{cfg: cfg, body: body}
	if s.cfg.Chooser == nil {
		s.cfg.Chooser = Seeded(1)
	}
	if s.cfg.MaxSteps == 0 {
		s.cfg.MaxSteps = 1 << 20
	}
	s.out = &Outcome{Crashed: core.NewSet(n), Restarted: core.NewSet(n)}
	links := make([]link, n*n)
	s.procs = make([]proc, n)
	for i := range s.procs {
		s.procs[i].box.links = links[i*n : (i+1)*n]
		s.procs[i].crashAt = -1
	}
	for pid, limit := range cfg.Crash {
		if pid >= 0 && int(pid) < n {
			s.procs[pid].crashAt = max(limit, 0)
		}
	}
	s.runnable = make([]core.PID, 0, n)
	s.senders = make([]core.PID, 0, n)

	s.baton = baton.New(n, s.run)
	for i := 0; i < n; i++ {
		s.spawn(core.PID(i), 1)
	}
	s.out.Values, s.out.Errs = s.baton.Wait()
	s.out.Steps = s.step
	if ob := cfg.Observer; ob != nil {
		switch {
		case errors.Is(s.abort, ErrDeadlock):
			ob.Event("msgnet.deadlock", -1, -1, map[string]any{"step": s.step})
		case errors.Is(s.abort, ErrMaxSteps):
			ob.Event("msgnet.maxsteps", -1, -1, map[string]any{"step": s.step})
		}
		ob.Event("msgnet.done", -1, -1, map[string]any{"steps": s.step, "crashed": s.out.Crashed.Count()})
	}
	return s.out, s.abort
}

func (s *sched) spawn(pid core.PID, incarnation int) {
	nd := &Node{Me: pid, N: len(s.procs), Incarnation: incarnation, sched: s}
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
		// The goroutines start last: from then on the new incarnations
		// compute beside this one, which gives up the baton.
		for i := 0; i < len(s.restarts); {
			rs := s.restarts[i]
			if s.abort == nil && rs.at > step {
				i++
				continue
			}
			if ob != nil {
				ob.Event("msgnet.restart", -1, int(rs.pid), map[string]any{"step": step, "incarnation": 2})
			}
			s.restarts = slices.Delete(s.restarts, i, i+1)
			procs[rs.pid].box.clear()
			procs[rs.pid].opsDone = 0
			s.out.Restarted.Add(rs.pid)
			s.spawning = append(s.spawning, rs.pid)
		}
		if due := s.spawning; len(due) > 0 {
			s.spawning = due[:0]
			for _, pid := range due {
				s.spawn(pid, 2)
			}
			return -1, false
		}

		// Runnable, ascending: pending senders, pending receivers with
		// mail, and timed receivers whose deadline has passed.
		runnable := s.runnable[:0]
		for pid := range procs {
			req := procs[pid].pending
			if req == nil {
				continue
			}
			if s.abort != nil || req.op.Send || procs[pid].box.mail > 0 || step >= req.op.Deadline {
				runnable = append(runnable, core.PID(pid))
			}
		}
		if len(runnable) == 0 {
			// Nobody can act now; fast-forward virtual time to the next
			// delayed release, receive deadline, or scheduled restart.
			next := -1
			if len(s.delayed) > 0 {
				next = s.delayed[0].release
			}
			for pid := range procs {
				if req := procs[pid].pending; req != nil && req.op.Deadline != NoDeadline && (next < 0 || req.op.Deadline < next) {
					next = req.op.Deadline
				}
			}
			for _, rs := range s.restarts {
				if next < 0 || rs.at < next {
					next = rs.at
				}
			}
			if next > step {
				if ob != nil {
					ob.Event("msgnet.advance", -1, -1, map[string]any{"from": step, "to": next})
				}
				s.step = next
				if next > s.cfg.MaxSteps {
					s.abort = &StepLimitError{Steps: s.cfg.MaxSteps, Pending: pendingPIDs(procs)}
				}
				continue
			}
			s.abort = newDeadlockError(step, procs)
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
					ob.Event("msgnet.crash", -1, int(pick), map[string]any{"ops": p.opsDone, "step": step})
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
				ob.Event("msgnet.send", -1, int(pick), map[string]any{"to": int(env.To), "step": step})
			}
			if len(act.Deliveries) == 0 {
				if ob != nil {
					reason := act.Reason
					if reason == "" {
						reason = "drop"
					}
					ob.Event("faultnet.drop", -1, int(pick), map[string]any{"to": int(env.To), "reason": reason, "step": step})
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
						ob.Event("faultnet.dup", -1, int(pick), map[string]any{"to": int(env.To), "copies": len(act.Deliveries), "step": step})
					}
					if maxDelay > 0 {
						ob.Event("faultnet.delay", -1, int(pick), map[string]any{"to": int(env.To), "delay": maxDelay, "step": step})
					}
				}
			}
			req.res = Result{Env: env, Got: true}
		case p.box.mail == 0:
			// Only a receive past its deadline is scheduled with an empty
			// mailbox: the deadline fires.
			p.opsDone++
			if ob != nil {
				ob.Event("msgnet.timeout", -1, int(pick), map[string]any{"deadline": req.op.Deadline, "step": step})
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
				ob.Event("msgnet.recv", -1, int(pick), map[string]any{"from": int(from), "step": step})
			}
			req.res = Result{Env: Envelope{From: from, To: pick, Payload: payload}, Got: true}
		}
		p.pending = nil
		s.step++
		if s.step > s.cfg.MaxSteps && s.abort == nil {
			s.abort = &StepLimitError{Steps: s.cfg.MaxSteps, Pending: pendingPIDs(procs)}
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
		p.pending = req
		var more bool
		if req.op, more = req.h.Handle(req.res); more {
			req.err = req.op.check(len(procs))
		}
		if !more || req.err != nil {
			p.pending = nil
			return pick, false
		}
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

// pendingPIDs lists the processes with an outstanding request, ascending.
func pendingPIDs(procs []proc) []core.PID {
	var out []core.PID
	for pid := range procs {
		if procs[pid].pending != nil {
			out = append(out, core.PID(pid))
		}
	}
	return out
}

// newDeadlockError snapshots the blocked processes and the per-link
// in-flight counts, by (From, To), at the moment of deadlock.
func newDeadlockError(step int, procs []proc) *DeadlockError {
	e := &DeadlockError{Step: step, Blocked: pendingPIDs(procs)}
	for from := range procs {
		for to := range procs {
			if l := procs[to].box.links[from]; l.head < len(l.q) {
				e.InFlight = append(e.InFlight, LinkLoad{From: core.PID(from), To: core.PID(to), Queued: len(l.q) - l.head})
			}
		}
	}
	return e
}
