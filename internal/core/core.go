// Package core implements the round-by-round fault detector (RRFD) model of
// Gafni (PODC 1998). Computation evolves in communication-closed rounds: in
// round r every process emits a message and then, for every process p_j,
// either receives p_j's round-r message or is told by the fault detector that
// p_j is suspected for this round (p_j ∈ D(i,r)). The system guarantees
// S(i,r) ∪ D(i,r) = S, where S(i,r) is the set of processes whose round-r
// message p_i received.
//
// The fault detector is unreliable — suspicion does not imply a real failure,
// different processes may be told different things, and a process suspected
// in one round may be heard from in the next. A concrete model of computation
// (synchronous, asynchronous, shared-memory, failure-detector-augmented, ...)
// is captured entirely by a predicate over the family of suspect sets D(i,r);
// the detector is best thought of as an adversary choosing the worst suspect
// sets the predicate allows.
//
// This package provides the process-set algebra (Set), the emit/receive
// Algorithm contract, the adversary contract (Oracle), the deterministic
// lock-step execution engine (Run), and execution Traces that record every
// D(i,r) for later validation against model predicates.
package core

import "fmt"

// PID identifies a process. Processes in a system of size n are numbered
// 0..n-1.
type PID int

// Value is an algorithm input or decision output.
type Value any

// Message is the data a process emits in a round. Algorithms define their own
// concrete message types.
type Message any

// Algorithm is one process's side of an emit/receive round-based algorithm,
// matching the abstract loop in the paper:
//
//	r := 1
//	forever do
//	    compute messages m_{i,r} for round r
//	    emit m_{i,r}
//	    (wait until) ∀p_j ∈ S: received m_{j,r} or p_j ∈ D(i,r)
//	    r := r + 1
//
// The engine calls Emit then Deliver once per round, in round order. Deliver
// may report a decision; the engine keeps running a decided process (full
// information) so that others continue to hear from it, so implementations
// must tolerate Emit/Deliver calls after deciding.
type Algorithm interface {
	// Emit returns the process's message for round r (r starts at 1).
	Emit(r int) Message

	// Deliver hands the process everything it ends round r with: msgs is
	// S(i,r) with each member's m_{j,r}, and suspects is D(i,r). The
	// engine guarantees S(i,r) ∪ D(i,r) = S (the sets may overlap: a
	// suspected process's message may still arrive). It returns the
	// decision value and true once the process commits to an output.
	//
	// msgs and suspects are engine-owned, read by reference and valid only
	// during the call (mutating suspects is fine): an implementation that
	// retains either past its return must copy what it keeps.
	Deliver(r int, msgs Inbox, suspects Set) (out Value, decided bool)
}

// Inbox is what a process holds at the end of a round: the set S(i,r) of
// processes it heard from, over the round's emission vector. The zero
// Inbox is empty.
type Inbox struct {
	from Set
	msgs []Message
}

// NewInbox returns the inbox of the members of from, msgs[p] being p's
// message: msgs is indexed by pid and read by reference.
func NewInbox(from Set, msgs []Message) Inbox { return Inbox{from, msgs} }

// Get returns p's message and whether p ∈ S(i,r).
func (in Inbox) Get(p PID) (Message, bool) {
	if !in.from.Has(p) {
		return nil, false
	}
	return in.msgs[p], true
}

// ForEach calls fn for every member of S(i,r) and its message, in
// increasing pid order.
func (in Inbox) ForEach(fn func(PID, Message)) {
	in.from.ForEach(func(p PID) { fn(p, in.msgs[p]) })
}

// Len returns |S(i,r)|.
func (in Inbox) Len() int { return in.from.Count() }

// From returns S(i,r). Like the inbox it is only valid during Deliver.
func (in Inbox) From() Set { return in.from }

// Factory creates the process-local Algorithm instance for process me of n
// with the given task input.
type Factory func(me PID, n int, input Value) Algorithm

// RoundPlan is one round of adversary choices.
type RoundPlan struct {
	// Suspects[i] is D(i,r). Must be non-nil for every process that emits
	// this round. The paper requires D(i,r) ≠ S.
	Suspects []Set

	// Crashes are processes that stop participating at the start of this
	// round: they emit nothing in this or any later round. A crashed
	// process must appear in every live process's Suspects set from this
	// round on (the engine validates this), since its message can never
	// arrive.
	Crashes Set

	// Deliver optionally overrides S(i,r). If Deliver is nil, the engine
	// uses S(i,r) = active \ D(i,r) plus nothing extra. When provided,
	// Deliver[i] ∪ Suspects[i] must cover all processes and Deliver[i]
	// must only contain processes that emitted this round. Overlap with
	// Suspects[i] is legal: the model allows receiving a message from a
	// suspected process.
	Deliver []Set
}

// Oracle is the round-by-round fault detector, driven as an adversary: before
// each round it chooses the suspect sets (and any real crashes) subject to
// the predicate of the model it represents.
//
// active is the set of processes that will emit this round unless the plan
// crashes them. Oracles may keep state across rounds (e.g. cumulative fault
// budgets) but must be deterministic for reproducibility; randomized oracles
// should derive all randomness from an explicit seed.
//
// A plan's sets are borrowed: they belong to the oracle, which may
// overwrite them at its next Plan call, so an oracle can return the same
// rows every round. The engine copies what it keeps (the D(i,r) Deliver
// gets, the round's record, the crashed set) and reads the plan only
// during its round; any other caller must do the same.
type Oracle interface {
	Plan(r int, active Set) RoundPlan
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(r int, active Set) RoundPlan

// Plan implements Oracle.
func (f OracleFunc) Plan(r int, active Set) RoundPlan { return f(r, active) }

var _ Oracle = (OracleFunc)(nil)

// PlanError describes an adversary plan that violates the RRFD model
// invariants (e.g. suspecting everybody, or failing to suspect a crashed
// process).
type PlanError struct {
	Round  int
	Proc   PID
	Reason string
}

// Error implements error.
func (e *PlanError) Error() string {
	return fmt.Sprintf("round %d: process %d: invalid plan: %s", e.Round, e.Proc, e.Reason)
}
