// Package predicate defines the RRFD model predicates of Gafni (PODC 1998)
// as first-class, checkable objects. A predicate constrains the family of
// suspect sets D(i,r) of an execution trace; each concrete system in the
// paper's §2–§5 is exactly one of these predicates (or a conjunction).
//
// Each elementary clause is defined once, as a row of the atom table in
// atoms.go. Models are named as internal/hoalg expressions, which compile
// to checkers and plan enumerators over the same rows; a package that
// hoalg itself imports checks one clause with AtomKind.Checker.
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

// PerRoundBudget is eq. (3): |D(i,r)| ≤ f for every process and round — the
// RRFD counterpart of an asynchronous message-passing system with at most f
// crash failures (a process advances after hearing n−f round messages). It
// is the one model this package names: the chaos and recovery audits report
// eq. (3) violations under "async-mp(f=…)".
func PerRoundBudget(f int) P {
	return AtomPerRound.Checker(fmt.Sprintf("async-mp(f=%d)", f), 1, f)
}
