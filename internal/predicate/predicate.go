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
// Predicates are checked post-hoc over a recorded core.Trace, by one
// evaluator asked for a verdict or for a witness. Call Holds where only the
// verdict counts — a sweep's filter, a census, a premise — since a failure
// then builds nothing. Call Check where a failure is reported: a nil error
// means the trace satisfies the predicate; otherwise the returned *Violation
// pinpoints the first offending round/process.
package predicate

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Violation reports where and how a trace broke a predicate. Beside where,
// it keeps only the witness the check found — the clause, its args, the
// second process it relates and at most two sets detached from the trace —
// and renders the text from it on demand (Detail, Error). Only Check builds
// one. The witness is a copy, so the text stays right after the trace is
// rewritten.
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

	// Eval returns nil iff the trace satisfies the predicate. With witness
	// set a failure is what Check reports; without it a failure is one
	// shared error and nothing is built.
	Eval func(t *core.Trace, witness bool) error
}

// Check returns nil iff the trace satisfies the predicate; otherwise a
// *Violation, or a compound's wrapper of one, pinpoints the failure.
func (p P) Check(t *core.Trace) error { return p.Eval(t, true) }

// Holds reports whether the trace satisfies the predicate, building no
// witness when it does not.
func (p P) Holds(t *core.Trace) bool { return p.Eval(t, false) == nil }

// errFails is every failure evaluated without a witness.
var errFails = errors.New("predicate: violated")

// wrapped is the failure of a compound predicate, as Check reports it: the
// violation of one of its parts under the compound's name. Like the
// Violation it wraps, it renders its text only when asked.
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
		Eval: func(t *core.Trace, witness bool) error {
			for _, p := range preds {
				if err := p.Eval(t, witness); err != nil {
					if !witness {
						return err
					}
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
		Eval: func(t *core.Trace, witness bool) error {
			if len(preds) == 0 {
				return nil
			}
			for _, p := range preds {
				if p.Holds(t) {
					return nil
				}
			}
			if !witness {
				return errFails
			}
			return &wrapped{name: name, or: true, err: preds[0].Check(t)}
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
		Eval: func(t *core.Trace, witness bool) error {
			if !p.Holds(t) {
				return nil
			}
			if !witness {
				return errFails
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
