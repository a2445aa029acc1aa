package hoalg

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/predicate"
)

// Compile lowers the expression to a runtime trace checker: the operators
// become predicate's And/Or/Not combinators and every atom becomes
// predicate's trace-checker driver over that atom's table entry — the same
// entry the legacy-named constructors of internal/predicate bind, so a
// compiled checker and its named twin differ in Violation.Predicate only
// (diff_test.go and golden_test.go hold them to that).
func (e *Expr) Compile() predicate.P {
	return compileAt(e, 1)
}

// compileAt compiles e so that atoms only inspect rounds >= from. The whole
// expression starts at from=1; Eventually(stab, kid) raises the window start
// of everything beneath it to stab+1. Threading the window through the atoms
// (instead of slicing the trace) keeps round numbers in violations absolute.
func compileAt(e *Expr, from int) predicate.P {
	name := e.String()
	switch e.Op {
	case OpAnd:
		kids := make([]predicate.P, len(e.Kids))
		for i, k := range e.Kids {
			kids[i] = compileAt(k, from)
		}
		return predicate.And(name, kids...)
	case OpOr:
		kids := make([]predicate.P, len(e.Kids))
		for i, k := range e.Kids {
			kids[i] = compileAt(k, from)
		}
		return predicate.Or(name, kids...)
	case OpNot:
		return predicate.Not(name, compileAt(e.Kids[0], from))
	case OpForever:
		p := compileAt(e.Kids[0], from)
		p.Name = name
		return p
	case OpEventually:
		stab := e.Args[0]
		win := from
		if stab+1 > win {
			win = stab + 1
		}
		inner := compileAt(e.Kids[0], win)
		return predicate.P{Name: name, Check: func(t *core.Trace) error {
			if t.Len() <= stab {
				return nil
			}
			return inner.Check(t)
		}}
	case OpAtom:
		return e.Atom.Checker(name, from, e.Args...)
	}
	panic(fmt.Sprintf("hoalg: unknown op %d", e.Op))
}
