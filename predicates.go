package rrfd

import (
	"repro/internal/predicate"
)

// Predicate is a checkable RRFD model predicate: a constraint on the family
// of suspect sets D(i,r) of an execution trace.
type Predicate = predicate.P

// Model predicates from the paper (§2–§5).
var (
	// SendOmission is eq. (1): the synchronous message-passing system
	// with at most f send-omission faults (§2 item 1).
	SendOmission = predicate.SendOmission

	// SyncCrash is eqs. (1)+(2): the synchronous crash-fault system (§2
	// item 2).
	SyncCrash = predicate.SyncCrash

	// PerRoundBudget is eq. (3): |D(i,r)| ≤ f — asynchronous message
	// passing with f crash failures (§2 item 3).
	PerRoundBudget = predicate.PerRoundBudget

	// SomeoneSeenByAll is eq. (4): each round somebody is suspected by
	// nobody.
	SomeoneSeenByAll = predicate.SomeoneSeenByAll

	// SharedMemory is eqs. (3)+(4): asynchronous SWMR shared memory (§2
	// item 4).
	SharedMemory = predicate.SharedMemory

	// NoMutualMiss is the alternative shared-memory clause of §2 item 4.
	NoMutualMiss = predicate.NoMutualMiss

	// AtomicSnapshot is the §2 item 5 predicate: budget + self-inclusion
	// + containment chain.
	AtomicSnapshot = predicate.AtomicSnapshot

	// NeverSuspectedExists is §2 item 6: the failure-detector-S system.
	NeverSuspectedExists = predicate.NeverSuspectedExists

	// KSetDetector is the §3 predicate: |⋃D \ ⋂D| < k each round.
	KSetDetector = predicate.KSetDetector

	// IdenticalSuspects is eq. (5) of §5: D(i,r) = D(j,r) for all i, j.
	IdenticalSuspects = predicate.IdenticalSuspects

	// EventuallyNeverSuspected is the eventual-accuracy (◇S-analogue)
	// predicate: some process is never suspected after round stab.
	EventuallyNeverSuspected = predicate.EventuallyNeverSuspected

	// Implies empirically checks the submodel relation A ⇒ B.
	Implies = predicate.Implies

	// ExhaustiveTraces enumerates every crash-free trace over a tiny
	// universe, walking one trace in place: the *Trace is valid only
	// during the callback.
	ExhaustiveTraces = predicate.ExhaustiveTraces

	// ExhaustiveImplies proves A ⇒ B over a tiny universe by
	// enumeration.
	ExhaustiveImplies = predicate.ExhaustiveImplies

	// ExhaustiveWitnesses counts the traces satisfying A but not B over
	// a tiny universe.
	ExhaustiveWitnesses = predicate.ExhaustiveWitnesses
)
