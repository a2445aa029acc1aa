package rrfd

import (
	"repro/internal/task"
)

// TaskAssignment is one execution's input/output pair.
type TaskAssignment = task.Assignment

// GradedValue is an adopt-commit task output.
type GradedValue = task.GradedValue

// KSetVerdict evaluates the k-set agreement relation — validity,
// k-agreement, termination — over indices 0..n-1 in that order; it is the
// one evaluation every audit in the repository words its own way. See
// task.KSet for the arguments and task.Verdict for the result.
func KSetVerdict[V comparable](k int, input func(V) bool, n int, decided func(i int) (V, bool), exempt func(i int) bool) task.Verdict[V] {
	return task.KSet(k, input, n, decided, exempt)
}

// Tasks and the solvability checker.
var (
	// ConsensusTask is the consensus task.
	ConsensusTask = task.Consensus

	// KSetAgreementTask is the k-set agreement task of §3.
	KSetAgreementTask = task.KSetAgreement

	// AdoptCommitTask is the §4.2 adopt-commit task.
	AdoptCommitTask = task.AdoptCommit

	// Solves machine-checks "the system defined by this predicate solves
	// this task with this algorithm" over seeded adversary families.
	Solves = task.Solves
)
