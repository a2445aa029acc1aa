// Package mc is the systematic model-checking subsystem: an exhaustive,
// substrate-agnostic explorer of adversary choice trees.
//
// The paper's central move is that a model of computation *is* a predicate
// over the suspicion sets D(i,r), and the round-by-round fault detector is
// an adversary picking the worst allowed D. Correctness claims (validity,
// k-agreement, the eq. (3) predicate) therefore quantify over *every*
// allowed adversary choice — not just the seeded random ones a chaos
// harness samples. This package checks them that way: it enumerates every
// run of a deterministic function of an explicit choice sequence.
//
// A run function receives a *Ctx and calls Ctx.Choose (or ChooseLabeled)
// each time an adversary decision is pending: which process steps next,
// which suspect-set family D(·,r) the detector plays, when a crash lands.
// Explore drives the function through a depth-first enumeration of the
// resulting choice tree, exactly like internal/swmr's original explorer
// but independent of any substrate:
//
//   - State-hash pruning: a run may report a fingerprint of its full state
//     via Ctx.Mark before choosing; subtrees rooted at an already-exhausted
//     fingerprint are cut (sound for safety properties when the fingerprint
//     faithfully captures all state the remaining execution depends on).
//   - Symmetry and sleep-set reduction: ChooseLabeled names each option
//     with a stable label; options carrying a label already explored at the
//     same node are collapsed (symmetry), and with Options.Independent a
//     classic sleep-set pass skips commuting interleavings.
//   - Bounded-depth sampling: beyond Options.MaxDepth the frontier is not
//     enumerated; each frontier node is instead completed Options.Samples
//     times with seeded random choices, so deep spaces degrade into
//     deterministic randomized testing rather than non-termination.
//   - Deterministic parallelism: the tree is split at its first branching
//     node and the subtrees are searched concurrently via internal/par;
//     results are aggregated in subtree order, so schedule counts and the
//     counterexample are byte-identical at every Options.Workers value.
//   - Counterexamples: a violating run is shrunk to a locally minimal
//     choice sequence and rendered as a replayable choice string
//     (FormatChoices / ParseChoices / Replay).
//
// Exploration is exhaustive for terminating systems within MaxSchedules;
// Result reports schedules run, subtrees pruned, and the deepest path, and
// is the one place those counts live: obs.Metrics counts an observer's
// mc.* events by kind only.
package mc

import (
	"fmt"

	"repro/internal/obs"
)

// DivergenceError reports that replaying a choice prefix presented a
// different option set than the recorded tree — i.e. the run function is
// not a deterministic function of its choices, and the search results
// would be meaningless.
type DivergenceError struct {
	// Depth is the choice-tree depth at which replay diverged.
	Depth int

	// Want is the option count recorded when this node was first visited;
	// Got is the count observed on replay. Want == Got means the counts
	// matched but an option's label changed.
	Want, Got int
}

// Error implements error.
func (e *DivergenceError) Error() string {
	if e.Want == e.Got {
		return fmt.Sprintf("mc: non-deterministic replay at depth %d: option labels changed across replays", e.Depth)
	}
	return fmt.Sprintf("mc: non-deterministic replay at depth %d: %d options recorded, %d on replay",
		e.Depth, e.Want, e.Got)
}

// Options configures Explore.
type Options struct {
	// MaxSchedules bounds the total schedules executed; 0 means 1<<20.
	// When the tree is split for parallel search the budget is divided
	// deterministically across subtrees, so coverage is independent of
	// Workers.
	MaxSchedules int

	// MaxDepth, when positive, stops exhaustive enumeration at that
	// choice depth: a node reached at MaxDepth becomes a frontier node,
	// completed Samples times with seeded random choices instead of being
	// enumerated. 0 explores exhaustively.
	MaxDepth int

	// Samples is the number of random completions per frontier node;
	// 0 means 8. Ignored unless MaxDepth > 0.
	Samples int

	// Seed derives the random completions of bounded-depth sampling.
	// 0 means 1.
	Seed int64

	// Workers bounds the concurrent subtree searches; 0 means one per
	// logical CPU, 1 forces the sequential loop. The result is
	// byte-identical at every value. An Observer forces 1 so the event
	// stream stays deterministic.
	Workers int

	// Independent, when non-nil, enables the sleep-set reduction for
	// labeled choices: Independent(a, b) must report whether the
	// transitions labeled a and b commute — from any state where both are
	// enabled, taking them in either order reaches the same state, and
	// neither disables the other. Declaring dependent transitions
	// independent is unsound; when in doubt return false.
	Independent func(a, b uint64) bool

	// NoPrune disables state-hash pruning even when the run calls Mark
	// (useful to measure the reduction, or when fingerprints may collide).
	NoPrune bool

	// Observer, when non-nil, receives mc.* events (one "mc.schedule" per
	// schedule, "mc.prune" per cut subtree, "mc.sample" per random
	// completion, "mc.violation" per counterexample, and a final "mc.done"
	// carrying the deepest path). Forces Workers to 1.
	Observer obs.Observer
}

func (o Options) withDefaults() Options {
	if o.MaxSchedules <= 0 {
		o.MaxSchedules = 1 << 20
	}
	if o.Samples <= 0 {
		o.Samples = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Observer != nil {
		o.Workers = 1
	}
	return o
}

// Stats count the work of one exploration.
type Stats struct {
	// Schedules is the number of completed (non-violating) schedules run.
	Schedules int

	// Pruned counts subtrees cut by state-hash pruning.
	Pruned int

	// SymmetrySkips counts options collapsed because an earlier option at
	// the same node carried the same label; SleepSkips counts options
	// skipped by the sleep-set reduction.
	SymmetrySkips, SleepSkips int

	// Sampled is how many of the schedules were random frontier
	// completions rather than enumerated paths.
	Sampled int

	// MaxDepth is the deepest choice path any schedule reached.
	MaxDepth int
}

func (s *Stats) add(t Stats) {
	s.Schedules += t.Schedules
	s.Pruned += t.Pruned
	s.SymmetrySkips += t.SymmetrySkips
	s.SleepSkips += t.SleepSkips
	s.Sampled += t.Sampled
	if t.MaxDepth > s.MaxDepth {
		s.MaxDepth = t.MaxDepth
	}
}

// Counterexample is a violating schedule, pinned down to its choices.
type Counterexample struct {
	// Choices replays the violation through Replay (or any run driven by
	// the same decisions). It is the shrunk, locally minimal sequence: no
	// single choice can be lowered and no tail dropped without losing the
	// violation.
	Choices []int

	// FirstFound is the violating sequence as the search first hit it,
	// before shrinking.
	FirstFound []int

	// Err is what the run function returned when replaying Choices.
	Err error
}

// String renders the counterexample with its replay string.
func (c *Counterexample) String() string {
	return fmt.Sprintf("choices %v (replay %s): %v", c.Choices, FormatChoices(c.Choices), c.Err)
}

// Result reports one exploration.
type Result struct {
	Stats

	// Exhausted reports that the entire choice tree was enumerated: no
	// schedule budget ran out and no frontier was sampled. An Exhausted
	// run with a nil Counterexample is a proof over the tree.
	Exhausted bool

	// LimitHit reports that MaxSchedules stopped at least one subtree.
	LimitHit bool

	// Counterexample is the first violating schedule in depth-first
	// order, nil when every schedule passed.
	Counterexample *Counterexample
}
