// Package predicate defines the RRFD model predicates of Gafni (PODC 1998)
// as first-class, checkable objects. A predicate constrains the family of
// suspect sets D(i,r) of an execution trace; each concrete system in the
// paper's §2–§5 is exactly one of these predicates (or a conjunction).
//
// Each elementary clause is defined once, as a row of the atom table in
// atoms.go; the named constructors below bind a legacy name to a row, and
// internal/hoalg compiles expressions and plan enumerators over the same
// rows.
//
// Predicates are checked post-hoc over a recorded core.Trace. A nil error
// means the trace satisfies the predicate; otherwise the returned *Violation
// pinpoints the first offending round/process.
package predicate

import (
	"fmt"

	"repro/internal/core"
)

// Violation reports where and how a trace broke a predicate. Beside where,
// it keeps only the witness the check found — the clause, its args, the
// second process it relates and at most two sets detached from the trace —
// and renders the text from it on demand (Detail, Error): a failure that is
// merely tested against nil formats nothing. The witness is a copy, so the
// text stays right after the trace is rewritten.
type Violation struct {
	Predicate string
	Round     int // 0 when the violation is a whole-trace property
	Proc      core.PID

	def *atomDef // the failed clause's row, or a negation's own
	w   *witness // nil when the text quotes nothing beyond the fields above
}

// Detail describes the violation in the clause's words.
func (v *Violation) Detail() string { return v.def.detail(v) }

// Error implements error.
func (v *Violation) Error() string {
	where := "whole trace"
	if v.Round > 0 {
		where = fmt.Sprintf("round %d", v.Round)
	}
	if v.Proc >= 0 {
		where += fmt.Sprintf(", process %d", v.Proc)
	}
	return fmt.Sprintf("predicate %q violated (%s): %s", v.Predicate, where, v.Detail())
}

// P is a checkable RRFD predicate.
type P struct {
	// Name identifies the predicate in reports.
	Name string

	// Check returns nil iff the trace satisfies the predicate.
	Check func(t *core.Trace) error
}

// wrapped is the failure of a compound predicate: the violation of one of
// its parts under the compound's name. Like the Violation it wraps, it
// renders its text only when asked, so a failure that is merely tested
// against nil — a premise rejected by ExhaustiveImplies, a short-circuited
// disjunct — formats nothing at all.
type wrapped struct {
	name string
	or   bool // every disjunct failed; err is the first one's failure
	err  error
}

// Error implements error.
func (w *wrapped) Error() string {
	if w.or {
		return w.name + ": every disjunct fails, first: " + w.err.Error()
	}
	return w.name + ": " + w.err.Error()
}

// Unwrap exposes the part's failure (in the end a *Violation) to
// errors.Is/As.
func (w *wrapped) Unwrap() error { return w.err }

// And returns the conjunction of predicates under the given name. A failure
// reads "name: <the first failing conjunct's error>" and unwraps to it.
func And(name string, preds ...P) P {
	return P{
		Name: name,
		Check: func(t *core.Trace) error {
			for _, p := range preds {
				if err := p.Check(t); err != nil {
					return &wrapped{name: name, err: err}
				}
			}
			return nil
		},
	}
}

// Or returns the disjunction of predicates under the given name: the trace
// satisfies it when at least one disjunct holds. On failure the first
// disjunct's violation is reported, since every disjunct failed: the error
// reads "name: every disjunct fails, first: <it>" and unwraps to it.
func Or(name string, preds ...P) P {
	return P{
		Name: name,
		Check: func(t *core.Trace) error {
			var first error
			for _, p := range preds {
				err := p.Check(t)
				if err == nil {
					return nil
				}
				if first == nil {
					first = err
				}
			}
			if first == nil {
				return nil
			}
			return &wrapped{name: name, or: true, err: first}
		},
	}
}

// Not returns the negation of a predicate under the given name: the trace
// satisfies it iff p is violated. The reported violation is whole-trace
// (there is no single offending round when a property holds everywhere).
func Not(name string, p P) P {
	neg := &atomDef{detail: func(*Violation) string {
		return fmt.Sprintf("negated predicate %q holds on the trace", p.Name)
	}}
	return P{
		Name: name,
		Check: func(t *core.Trace) error {
			if err := p.Check(t); err != nil {
				return nil
			}
			return &Violation{Predicate: name, Proc: -1, def: neg}
		},
	}
}

// SelfTrusting is the "p_i ∉ D(i,r)" clause of eq. (1): a process never
// suspects itself.
func SelfTrusting() P {
	return AtomSelfTrust.Checker("self-trusting", 1)
}

// TotalSuspectBudget is the |⋃_{r>0} ⋃_i D(i,r)| ≤ f clause of eq. (1): over
// the whole execution at most f distinct processes are ever suspected.
func TotalSuspectBudget(f int) P {
	return AtomAtMost.Checker(fmt.Sprintf("total-suspect-budget(f=%d)", f), 1, f)
}

// SendOmission is eq. (1): the RRFD counterpart of a synchronous
// message-passing system with at most f send-omission faults.
func SendOmission(f int) P {
	return And(fmt.Sprintf("sync-send-omission(f=%d)", f), SelfTrusting(), TotalSuspectBudget(f))
}

// SuspicionPropagates is eq. (2): whatever anyone suspected at round r is
// suspected by everyone at round r+1 — ⋃_i D(i,r) ⊆ D(k,r+1) for all k.
// Conjoined with eq. (1) it yields the synchronous crash-fault model; the
// paper notes this makes crash an explicit submodel of send-omission.
func SuspicionPropagates() P {
	return AtomPropagates.Checker("suspicion-propagates", 1)
}

// SyncCrash is eqs. (1)+(2): the RRFD counterpart of a synchronous
// message-passing system with at most f crash faults.
func SyncCrash(f int) P {
	return And(fmt.Sprintf("sync-crash(f=%d)", f), SendOmission(f), SuspicionPropagates())
}

// PerRoundBudget is eq. (3): |D(i,r)| ≤ f for every process and round — the
// RRFD counterpart of an asynchronous message-passing system with at most f
// crash failures (a process advances after hearing n−f round messages).
func PerRoundBudget(f int) P {
	return AtomPerRound.Checker(fmt.Sprintf("async-mp(f=%d)", f), 1, f)
}

// SomeoneSeenByAll is eq. (4): in every round at least one process is
// suspected by nobody — |⋃_i D(i,r)| < n. Conjoined with eq. (3) it is the
// paper's RRFD counterpart of asynchronous SWMR shared memory (avoiding the
// network-partition behaviour message passing has when 2f ≥ n).
func SomeoneSeenByAll() P {
	return AtomSomeoneSeen.Checker("someone-seen-by-all", 1)
}

// SharedMemory is eqs. (3)+(4): the RRFD counterpart of an asynchronous SWMR
// shared-memory system with at most f crash failures (§2 item 4).
func SharedMemory(f int) P {
	return And(fmt.Sprintf("shared-memory(f=%d)", f), PerRoundBudget(f), SomeoneSeenByAll())
}

// NoMutualMiss is the alternative shared-memory clause from §2 item 4:
// p_j ∈ D(i,r) ⇒ p_i ∉ D(j,r). The paper observes this does NOT imply
// eq. (4) on its own (misses can form a cycle), so the shared-memory
// alternative is the conjunction of both.
func NoMutualMiss() P {
	return AtomNoMutualMiss.Checker("no-mutual-miss", 1)
}

// SelfIncluded requires p_i ∉ D(i,r) — identical to SelfTrusting but named as
// in §2 item 5's snapshot predicate for readability in conjunctions.
func SelfIncluded() P {
	// Only P.Name changes: violations have always named "self-trusting",
	// and fixed-seed outputs quote them.
	p := SelfTrusting()
	p.Name = "self-included"
	return p
}

// ContainmentChain is the snapshot clause of §2 item 5: within a round the
// suspect sets are totally ordered by containment — D(i,r) ⊆ D(j,r) or
// D(j,r) ⊆ D(i,r) for all i,j.
func ContainmentChain() P {
	return AtomChain.Checker("containment-chain", 1)
}

// Immediacy is the defining extra clause of the iterated immediate-snapshot
// model (the paper's reference [4], origin of the round-by-round idea): if
// p_i hears p_j, then p_i's view contains p_j's — in suspect terms,
// j ∉ D(i,r) ⇒ D(i,r) ⊆ D(j,r) for active i, j. Together with
// self-inclusion and the containment chain it makes IIS a strict submodel
// of the item 5 snapshot model.
func Immediacy() P {
	return AtomImmediacy.Checker("immediacy", 1)
}

// ImmediateSnapshot is the iterated-immediate-snapshot predicate: the item 5
// snapshot predicate (with the wait-free budget n−1) strengthened by
// immediacy.
func ImmediateSnapshot(n int) P {
	return And(fmt.Sprintf("immediate-snapshot(n=%d)", n),
		SelfIncluded(), ContainmentChain(), Immediacy(), PerRoundBudget(n-1))
}

// AtomicSnapshot is the §2 item 5 predicate: eq. (3) plus self-inclusion plus
// the containment chain — the RRFD counterpart of an f-resilient asynchronous
// atomic-snapshot shared-memory system.
func AtomicSnapshot(f int) P {
	return And(fmt.Sprintf("atomic-snapshot(f=%d)", f),
		PerRoundBudget(f), SelfIncluded(), ContainmentChain())
}

// NeverSuspectedExists is §2 item 6: some process is never suspected by
// anyone in any round — the RRFD counterpart of an asynchronous system
// augmented with the failure detector S of Chandra and Toueg. The paper notes
// this is the same predicate as |⋃_r ⋃_i D(i,r)| < n, i.e. eq. (1)'s budget
// clause with f = n−1.
func NeverSuspectedExists() P {
	return AtomNeverSusp.Checker("never-suspected-exists", 1)
}

// EventuallyNeverSuspected is the eventual-accuracy analogue of §2 item 6
// (the ◇S regime of the §7 research programme): from round stab+1 on, some
// fixed process appears in no D(i,r). Traces no longer than stab satisfy it
// vacuously.
func EventuallyNeverSuspected(stab int) P {
	return AtomNeverSusp.Checker(fmt.Sprintf("eventually-never-suspected(stab=%d)", stab), stab+1)
}

// KSetDetector is the §3 predicate: |⋃_i D(i,r) \ ⋂_i D(i,r)| < k in every
// round — the per-round "uncertainty" of the detector is below k. Theorem 3.1
// shows it solves k-set agreement in one round; Theorem 3.3 shows a system
// with a k-set-consensus object and SWMR memory implements it.
func KSetDetector(k int) P {
	return AtomKSet.Checker(fmt.Sprintf("k-set-detector(k=%d)", k), 1, k)
}

// IdenticalSuspects is eq. (5) from §5: every process gets the same suspect
// set each round — D(i,r) = D(j,r) for all i,j. This is the k=1 instance of
// the §3 detector, implementable in 2 steps of the semi-synchronous model.
func IdenticalSuspects() P {
	return AtomIdentical.Checker("identical-suspects", 1)
}

// BSystem is the §2 item 3 counterexample system B: per round there is a set
// Q of at most t processes that may each miss up to t others, while everyone
// else misses at most f. The paper uses it (with f < t, 2t < n) to show
// eq. (3) is not the weakest RRFD for f-resilient asynchronous message
// passing: two rounds of B implement one round of the eq. (3) system A.
func BSystem(f, t int) P {
	return AtomBSys.Checker(fmt.Sprintf("b-system(f=%d,t=%d)", f, t), 1, f, t)
}
