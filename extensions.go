package rrfd

import (
	"repro/internal/abd"
	"repro/internal/adversary"
	"repro/internal/immediate"
	"repro/internal/predicate"
	"repro/internal/view"
)

// ---- Full-information views (§1, §2 items 3-4, Cor 4.4 machinery) ----

var (
	// RunFullInfo runs the full-information protocol and returns final
	// views.
	RunFullInfo = view.Run

	// RunFullInfoHistory also returns the per-round view history.
	RunFullInfoHistory = view.RunHistory

	// ReconstructFIFO recreates the §2 item 3 simulated FIFO receptions
	// from a view history.
	ReconstructFIFO = view.ReconstructFIFO

	// CheckFIFO validates a reconstructed reception log.
	CheckFIFO = view.CheckFIFO

	// EmulateWrite analyses a history for §2 item 4's write-completion
	// structure and verifies the subsequent-round visibility claim.
	EmulateWrite = view.EmulateWrite

	// KnownByAll returns the processes every given view knows.
	KnownByAll = view.KnownByAll
)

// ---- Immediate snapshots (reference [4], the iterated model) ----

// ImmediateView is a Participate result.
type ImmediateView = immediate.View

var (
	// NewImmediate returns a handle to a named one-shot immediate
	// snapshot.
	NewImmediate = immediate.New

	// CheckImmediateViews validates self-inclusion, containment, and
	// immediacy over a set of views.
	CheckImmediateViews = immediate.CheckViews

	// RunImmediateRounds runs the iterated immediate snapshot and
	// returns its RRFD trace.
	RunImmediateRounds = immediate.RunRounds

	// Immediacy is the IIS-specific predicate clause.
	Immediacy = predicate.Immediacy

	// ImmediateSnapshot is the full IIS predicate.
	ImmediateSnapshot = predicate.ImmediateSnapshot

	// OrderedBlocks is the IIS adversary (ordered concurrency blocks).
	OrderedBlocks = adversary.OrderedBlocks
)

// ---- ABD register emulation (reference [22]) ----

// ABDRegister is a process's handle to the emulated SWMR atomic
// register over message passing.
type ABDRegister = abd.Register

var (
	// RunABD executes a workload over the emulated register (2f < n).
	RunABD = abd.Run

	// CheckAtomic validates an operation log against SWMR atomicity.
	CheckAtomic = abd.CheckAtomic
)
