// Package hoalg is a combinator algebra over per-round heard-of/suspicion
// sets D(i,r), after Shimi/Hurault/Queinnec's Heard-Of characterization
// (arXiv 2011.12879) and derivation-from-elementary-patterns (arXiv
// 2004.10619) papers. An RRFD model is a predicate over the family of
// suspect sets of an execution; this package makes those predicates
// first-class expressions with a canonical string form and three compilers:
//
//   - Compile() — a runtime trace checker (predicate.P, driven by the same
//     atom-table entries as the named constructors of internal/predicate);
//   - CompileEnum(n) — an exhaustive round-plan enumerator for the
//     internal/mc explorer (the four bespoke enumerators that used to live
//     in internal/adversary are now thin wrappers over this);
//   - CompilePlan(n, seed) — a seeded chaos fault plan for
//     internal/faultnet whose injected executions satisfy the expression
//     (honest) or violate it (under a top-level negation).
//
// Atoms quantify over all rounds implicitly ("forever"); Eventually(stab, e)
// relaxes a sub-expression to hold only from round stab+1 on.
package hoalg

import (
	"fmt"
	"strings"

	"repro/internal/predicate"
)

// Op is the node kind of an expression.
type Op int

const (
	OpAtom Op = iota
	OpAnd
	OpOr
	OpNot
	OpForever
	OpEventually
)

// AtomKind enumerates the elementary predicates over D(i,r): the rows of
// predicate's atom table, where each clause's name, arity, evaluator and
// violation text are defined once (DESIGN §17 has the table).
type AtomKind = predicate.AtomKind

const (
	AtomSelfTrust    = predicate.AtomSelfTrust
	AtomAtMost       = predicate.AtomAtMost
	AtomPerRound     = predicate.AtomPerRound
	AtomKSet         = predicate.AtomKSet
	AtomNoMutualMiss = predicate.AtomNoMutualMiss
	AtomSomeoneSeen  = predicate.AtomSomeoneSeen
	AtomIdentical    = predicate.AtomIdentical
	AtomChain        = predicate.AtomChain
	AtomImmediacy    = predicate.AtomImmediacy
	AtomPropagates   = predicate.AtomPropagates
	AtomNeverSusp    = predicate.AtomNeverSusp
	AtomBSys         = predicate.AtomBSys
)

// Expr is a model expression. Leaves are atoms; inner nodes combine
// sub-expressions. Expressions are immutable once built.
type Expr struct {
	Op   Op
	Atom AtomKind // valid when Op == OpAtom
	Args []int    // atom arguments, or [stab] for OpEventually
	Kids []*Expr  // operands for And/Or/Not/Forever/Eventually
}

func atom(k AtomKind, args ...int) *Expr {
	for i, a := range args {
		if a < 0 {
			args[i] = 0
		}
	}
	return &Expr{Op: OpAtom, Atom: k, Args: args}
}

// SelfTrusting is the "p ∉ D(p,r)" atom of eq. (1).
func SelfTrusting() *Expr { return atom(AtomSelfTrust) }

// AtMostSuspected bounds the whole-run suspect union: |⋃⋃D(i,r)| ≤ f.
func AtMostSuspected(f int) *Expr { return atom(AtomAtMost, f) }

// PerRound is eq. (3): |D(i,r)| ≤ f for every process and round.
func PerRound(f int) *Expr { return atom(AtomPerRound, f) }

// KSetEq3 is the §3 k-set detector: per-round uncertainty below k.
func KSetEq3(k int) *Expr {
	if k < 1 {
		k = 1
	}
	return atom(AtomKSet, k)
}

// NoMutualMiss forbids mutual suspicion within a round (§2 item 4).
func NoMutualMiss() *Expr { return atom(AtomNoMutualMiss) }

// SomeoneSeen is eq. (4): some process is suspected by nobody each round.
func SomeoneSeen() *Expr { return atom(AtomSomeoneSeen) }

// Identical is eq. (5): all processes share one suspect set per round.
func Identical() *Expr { return atom(AtomIdentical) }

// Chain totally orders a round's suspect sets by containment (§2 item 5).
func Chain() *Expr { return atom(AtomChain) }

// Immediacy is the immediate-snapshot clause: j ∉ D(i,r) ⇒ D(i,r) ⊆ D(j,r).
func Immediacy() *Expr { return atom(AtomImmediacy) }

// Propagates is eq. (2): round-r suspicions appear in every D(k,r+1).
func Propagates() *Expr { return atom(AtomPropagates) }

// NeverSuspected is §2 item 6: some process is never suspected by anyone.
func NeverSuspected() *Expr { return atom(AtomNeverSusp) }

// BSys is the §2 item 3 counterexample system B(f,t).
func BSys(f, t int) *Expr { return atom(AtomBSys, f, t) }

// SendOmission is eq. (1): selftrust & atmost(f).
func SendOmission(f int) *Expr { return And(SelfTrusting(), AtMostSuspected(f)) }

// SyncCrash is eqs. (1)+(2): selftrust & atmost(f) & propagates.
func SyncCrash(f int) *Expr {
	return And(SelfTrusting(), AtMostSuspected(f), Propagates())
}

// SharedMemory is eqs. (3)+(4): perround(f) & someoneseen.
func SharedMemory(f int) *Expr { return And(PerRound(f), SomeoneSeen()) }

// AtomicSnapshot is §2 item 5: perround(f) & selftrust & chain.
func AtomicSnapshot(f int) *Expr {
	return And(PerRound(f), SelfTrusting(), Chain())
}

// ImmediateSnapshot is the iterated-immediate-snapshot model for n procs.
func ImmediateSnapshot(n int) *Expr {
	return And(SelfTrusting(), Chain(), Immediacy(), PerRound(n-1))
}

// And conjoins expressions, flattening nested conjunctions. And of one
// expression is that expression; And of none panics (no unit to print).
func And(kids ...*Expr) *Expr { return nary(OpAnd, kids) }

// Or disjoins expressions, flattening nested disjunctions.
func Or(kids ...*Expr) *Expr { return nary(OpOr, kids) }

func nary(op Op, kids []*Expr) *Expr {
	if len(kids) == 0 {
		panic("hoalg: empty And/Or")
	}
	flat := make([]*Expr, 0, len(kids))
	for _, k := range kids {
		if k.Op == op {
			flat = append(flat, k.Kids...)
		} else {
			flat = append(flat, k)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return &Expr{Op: op, Kids: flat}
}

// Not negates an expression. Double negation cancels.
func Not(e *Expr) *Expr {
	if e.Op == OpNot {
		return e.Kids[0]
	}
	return &Expr{Op: OpNot, Kids: []*Expr{e}}
}

// Forever marks a sub-expression as holding in every round. Atoms already
// quantify over all rounds, so this is a readability marker with identity
// semantics — it survives parse/String round-trips.
func Forever(e *Expr) *Expr { return &Expr{Op: OpForever, Kids: []*Expr{e}} }

// Eventually relaxes e to hold from round stab+1 on; traces no longer than
// stab satisfy it vacuously.
func Eventually(stab int, e *Expr) *Expr {
	if stab < 0 {
		stab = 0
	}
	return &Expr{Op: OpEventually, Args: []int{stab}, Kids: []*Expr{e}}
}

// precedence: | binds loosest, then &, then unary/primary.
func prec(e *Expr) int {
	switch e.Op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	default:
		return 3
	}
}

// String renders the canonical form: atoms as name(args), & and | infix
// with minimal parentheses, ! prefix, forever/eventually as functions.
// Parse(e.String()) reproduces e exactly (see parse.go).
func (e *Expr) String() string {
	var b strings.Builder
	e.render(&b, 0)
	return b.String()
}

func (e *Expr) render(b *strings.Builder, parent int) {
	if p := prec(e); p < parent {
		b.WriteByte('(')
		e.renderRaw(b)
		b.WriteByte(')')
		return
	}
	e.renderRaw(b)
}

func (e *Expr) renderRaw(b *strings.Builder) {
	switch e.Op {
	case OpAtom:
		b.WriteString(e.Atom.Name())
		if len(e.Args) > 0 {
			b.WriteByte('(')
			for i, a := range e.Args {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(b, "%d", a)
			}
			b.WriteByte(')')
		}
	case OpAnd:
		for i, k := range e.Kids {
			if i > 0 {
				b.WriteString(" & ")
			}
			k.render(b, 2)
		}
	case OpOr:
		for i, k := range e.Kids {
			if i > 0 {
				b.WriteString(" | ")
			}
			k.render(b, 1)
		}
	case OpNot:
		b.WriteByte('!')
		e.Kids[0].render(b, 3)
	case OpForever:
		b.WriteString("forever(")
		e.Kids[0].render(b, 0)
		b.WriteByte(')')
	case OpEventually:
		fmt.Fprintf(b, "eventually(%d, ", e.Args[0])
		e.Kids[0].render(b, 0)
		b.WriteByte(')')
	}
}

// Equal reports structural equality.
func (e *Expr) Equal(o *Expr) bool {
	if e == nil || o == nil {
		return e == o
	}
	if e.Op != o.Op || e.Atom != o.Atom ||
		len(e.Args) != len(o.Args) || len(e.Kids) != len(o.Kids) {
		return false
	}
	for i := range e.Args {
		if e.Args[i] != o.Args[i] {
			return false
		}
	}
	for i := range e.Kids {
		if !e.Kids[i].Equal(o.Kids[i]) {
			return false
		}
	}
	return true
}

// containsAtom reports whether any leaf of e is the given atom.
func (e *Expr) containsAtom(k AtomKind) bool {
	if e.Op == OpAtom {
		return e.Atom == k
	}
	for _, kid := range e.Kids {
		if kid.containsAtom(k) {
			return true
		}
	}
	return false
}
