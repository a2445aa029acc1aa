package predicate

import (
	"fmt"

	"repro/internal/core"
)

// AtomKind names one elementary clause over the suspect sets D(i,r). The
// atom table below is the single place each clause is defined: Checker,
// hoalg's Compile and hoalg's plan enumerator are all drivers over its
// entries (DESIGN §17).
type AtomKind int

const (
	// AtomSelfTrust: p ∉ D(p,r) — the self-trust clause of eq. (1).
	AtomSelfTrust AtomKind = iota
	// AtomAtMost: |⋃_r ⋃_i D(i,r)| ≤ f — eq. (1)'s whole-run budget.
	AtomAtMost
	// AtomPerRound: |D(i,r)| ≤ f — eq. (3), the async model.
	AtomPerRound
	// AtomKSet: |⋃D \ ⋂D| < k per round — the §3 k-set detector.
	AtomKSet
	// AtomNoMutualMiss: j ∈ D(i,r) ⇒ i ∉ D(j,r) — §2 item 4 alternative.
	AtomNoMutualMiss
	// AtomSomeoneSeen: |⋃_i D(i,r)| < n — eq. (4).
	AtomSomeoneSeen
	// AtomIdentical: D(i,r) = D(j,r) — eq. (5), the DDS detector.
	AtomIdentical
	// AtomChain: suspect sets totally ordered by ⊆ — §2 item 5 snapshots.
	AtomChain
	// AtomImmediacy: j ∉ D(i,r) ⇒ D(i,r) ⊆ D(j,r) — immediate snapshots.
	AtomImmediacy
	// AtomPropagates: ⋃_i D(i,r) ⊆ D(k,r+1) — eq. (2), crash propagation.
	AtomPropagates
	// AtomNeverSusp: some process is in no D(i,r) — §2 item 6 (detector S).
	AtomNeverSusp
	// AtomBSys: the §2 item 3 counterexample system B(f,t).
	AtomBSys
)

// Round is what a clause is judged against: one round's suspect sets plus
// the window context, i.e. what the rounds before it contributed.
type Round struct {
	N      int
	R      int        // round number (1-based)
	Active core.Set   // the processes the clause quantifies over
	D      []core.Set // D[i] = D(i,R), indexed by pid

	// From is the first round the clause constrains (1, or stab+1 beneath
	// an eventually). Cum is ⋃ D over rounds From..R−1; Prev is ⋃_i D(i,R−1),
	// left empty when R−1 lies outside the window. A trace check folds both
	// from the recorded rounds; a plan enumerator takes them from its state.
	From int
	Cum  core.Set
	Prev core.Set
}

// scope says which rounds decide a clause, and so what a driver must fold.
type scope int

const (
	perRound   scope = iota // each round on its own
	prevRound               // each round against Prev
	wholeTrace              // the window's union: Cum ∪ this round
)

// atomDef is one row of the atom table. eval returns a witness — ok, the
// offending process and a second process when the clause relates two (−1
// where there is none) — without allocating it. keep detaches from the
// round the sets detail will quote, once eval has failed under Check: a
// set the clause built in the evaluation's scratch, which nothing rewrites
// once the evaluation has failed, or a clone of D(p) / D(q), since the
// trace may be rewritten before anyone reads the text (nil: the text
// quotes nothing but the round and the process). detail renders a
// Violation from its witness, and runs only when the text is read. A
// clause whose eval builds a set, or whose scope folds one, has sets set:
// its Checker gives each evaluation one scratch row u to build it in (Holds
// passes none, and each build allocates).
type atomDef struct {
	name   string // expression syntax
	arity  int
	scope  scope
	sets   bool
	eval   func(args []int, rd Round, u core.Set) (ok bool, p, q core.PID)
	keep   func(args []int, rd Round, p, q core.PID) (a, b core.Set)
	detail func(v *Violation) string
}

var atoms = [...]atomDef{
	AtomSelfTrust: {
		name: "selftrust",
		eval: func(_ []int, rd Round, _ core.Set) (bool, core.PID, core.PID) {
			return firstProc(&rd, func(p core.PID) bool { return rd.D[p].Has(p) })
		},
		detail: func(*Violation) string { return "process suspects itself" },
	},
	AtomAtMost: {
		name: "atmost", arity: 1, scope: wholeTrace, sets: true,
		eval: func(args []int, rd Round, u core.Set) (bool, core.PID, core.PID) {
			return windowUnion(&rd, u).Count() <= args[0], -1, -1
		},
		// Judged on the closed window: Cum is the whole union, built in
		// the evaluation's own row.
		keep: func(_ []int, rd Round, _, _ core.PID) (core.Set, core.Set) { return rd.Cum, core.Set{} },
		detail: func(v *Violation) string {
			return fmt.Sprintf("%d distinct processes suspected (%s), budget %d", v.w.sets[0].Count(), v.w.sets[0], v.w.args[0])
		},
	},
	AtomPerRound: {
		name: "perround", arity: 1,
		eval: func(args []int, rd Round, _ core.Set) (bool, core.PID, core.PID) {
			return firstProc(&rd, func(p core.PID) bool { return rd.D[p].Count() > args[0] })
		},
		keep: keepD,
		detail: func(v *Violation) string {
			return fmt.Sprintf("|D|=%d > f=%d (%s)", v.w.sets[0].Count(), v.w.args[0], v.w.sets[0])
		},
	},
	AtomKSet: {
		name: "kset", arity: 1, sets: true,
		eval: func(args []int, rd Round, u core.Set) (bool, core.PID, core.PID) {
			return uncertain(&rd, u) < args[0], -1, -1
		},
		keep: func(_ []int, rd Round, _, _ core.PID) (core.Set, core.Set) { return uncertainty(&rd), core.Set{} },
		detail: func(v *Violation) string {
			return fmt.Sprintf("uncertainty %s has size %d ≥ k=%d", v.w.sets[0], v.w.sets[0].Count(), v.w.args[0])
		},
	},
	AtomNoMutualMiss: {
		name: "nomutualmiss",
		eval: func(_ []int, rd Round, _ core.Set) (bool, core.PID, core.PID) {
			return firstPair(&rd, func(i, j core.PID) bool { return rd.D[i].Has(j) && rd.D[j].Has(i) })
		},
		keep: keepNone,
		detail: func(v *Violation) string {
			return fmt.Sprintf("processes %d and %d suspect each other", v.Proc, v.w.q)
		},
	},
	AtomSomeoneSeen: {
		name: "someoneseen", sets: true,
		eval: func(_ []int, rd Round, u core.Set) (bool, core.PID, core.PID) {
			return roundUnion(&rd, u).Count() < rd.N, -1, -1
		},
		detail: func(*Violation) string { return "every process is suspected by someone" },
	},
	AtomIdentical: {
		name: "identical",
		eval: func(_ []int, rd Round, _ core.Set) (bool, core.PID, core.PID) {
			first := core.PID(-1)
			ok, p, _ := firstProc(&rd, func(p core.PID) bool {
				if first < 0 {
					first = p
				}
				return !rd.D[p].Equal(rd.D[first])
			})
			return ok, p, first
		},
		keep: keepD,
		detail: func(v *Violation) string {
			return fmt.Sprintf("D(%d)=%s differs from %s", v.Proc, v.w.sets[0], v.w.sets[1])
		},
	},
	AtomChain: {
		name: "chain",
		eval: func(_ []int, rd Round, _ core.Set) (bool, core.PID, core.PID) {
			return firstPair(&rd, func(i, j core.PID) bool {
				return i < j && !rd.D[i].IsSubset(rd.D[j]) && !rd.D[j].IsSubset(rd.D[i])
			})
		},
		keep: keepD,
		detail: func(v *Violation) string {
			return fmt.Sprintf("D(%d)=%s and D(%d)=%s incomparable", v.Proc, v.w.sets[0], v.w.q, v.w.sets[1])
		},
	},
	AtomImmediacy: {
		name: "immediacy",
		eval: func(_ []int, rd Round, _ core.Set) (bool, core.PID, core.PID) {
			return firstPair(&rd, func(i, j core.PID) bool {
				return !rd.D[i].Has(j) && !rd.D[i].IsSubset(rd.D[j])
			})
		},
		keep: keepD,
		detail: func(v *Violation) string {
			return fmt.Sprintf("hears %d but D(%d)=%s ⊄ D(%d)=%s", v.w.q, v.Proc, v.w.sets[0], v.w.q, v.w.sets[1])
		},
	},
	AtomPropagates: {
		name: "propagates", scope: prevRound, sets: true,
		eval: func(_ []int, rd Round, _ core.Set) (bool, core.PID, core.PID) {
			return firstProc(&rd, func(k core.PID) bool { return !rd.Prev.IsSubset(rd.D[k]) })
		},
		// Prev is the evaluation's own scratch, never rewritten after a
		// failure; only D(k) belongs to the trace.
		keep: func(_ []int, rd Round, k, _ core.PID) (core.Set, core.Set) { return rd.D[k].Clone(), rd.Prev },
		detail: func(v *Violation) string {
			return fmt.Sprintf("D(%d,%d)=%s does not contain round-%d union %s",
				v.Proc, v.Round, v.w.sets[0], v.Round-1, v.w.sets[1])
		},
	},
	AtomNeverSusp: {
		name: "neversusp", scope: wholeTrace, sets: true,
		eval: func(_ []int, rd Round, u core.Set) (bool, core.PID, core.PID) {
			return windowUnion(&rd, u).Count() < rd.N, -1, -1
		},
		keep: keepNone,
		detail: func(v *Violation) string {
			if v.w.from > 1 {
				return fmt.Sprintf("every process suspected after round %d", v.w.from-1)
			}
			return "every process was suspected at some round"
		},
	},
	AtomBSys: {
		// Q, the processes over the f budget, must have at most t members,
		// each within the t budget. The reported offender is the highest
		// pid over t; without one the witness is Q.
		name: "bsys", arity: 2,
		eval: func(args []int, rd Round, _ core.Set) (bool, core.PID, core.PID) {
			bad, q := overBudget(args, &rd)
			return bad < 0 && q <= args[1], bad, -1
		},
		keep: func(args []int, rd Round, bad, _ core.PID) (core.Set, core.Set) {
			if bad >= 0 {
				return rd.D[bad].Clone(), core.Set{}
			}
			q := core.NewSet(rd.N)
			rd.Active.ForEach(func(p core.PID) {
				if rd.D[p].Count() > args[0] {
					q.Add(p)
				}
			})
			return q, core.Set{}
		},
		detail: func(v *Violation) string {
			if v.Proc >= 0 {
				return fmt.Sprintf("|D|=%d exceeds even the t=%d budget", v.w.sets[0].Count(), v.w.args[1])
			}
			return fmt.Sprintf("%d processes exceed the f budget, allowed ≤ t=%d", v.w.sets[0].Count(), v.w.args[1])
		},
	},
}

// keepD detaches D(p) and, when the clause relates two processes, D(q).
func keepD(_ []int, rd Round, p, q core.PID) (a, b core.Set) {
	a = rd.D[p].Clone()
	if q >= 0 {
		b = rd.D[q].Clone()
	}
	return a, b
}

// firstProc finds the lowest active pid that bad holds of.
func firstProc(rd *Round, bad func(p core.PID) bool) (bool, core.PID, core.PID) {
	for p := core.PID(0); int(p) < rd.N; p++ {
		if rd.Active.Has(p) && bad(p) {
			return false, p, -1
		}
	}
	return true, -1, -1
}

// firstPair finds the first ordered pair (i, j) of active pids — j may
// equal i — that bad holds of: lowest i, then lowest j.
func firstPair(rd *Round, bad func(i, j core.PID) bool) (bool, core.PID, core.PID) {
	for i := core.PID(0); int(i) < rd.N; i++ {
		if !rd.Active.Has(i) {
			continue
		}
		for j := core.PID(0); int(j) < rd.N; j++ {
			if rd.Active.Has(j) && bad(i, j) {
				return false, i, j
			}
		}
	}
	return true, -1, -1
}

// row is u, emptied, or a fresh set when the caller gave no scratch row.
func row(n int, u core.Set) core.Set {
	if u.Universe() != n {
		return core.NewSet(n)
	}
	u.Clear()
	return u
}

// roundUnion is ⋃_i D(i,R) over the active processes, built in u.
func roundUnion(rd *Round, u core.Set) core.Set {
	u = row(rd.N, u)
	rd.Active.ForEach(func(p core.PID) { u.UnionInto(rd.D[p]) })
	return u
}

// windowUnion is the suspect union of rounds From..R, built in u. Cum is
// read before anything is written, so u may be Cum's own row: the
// Checker's whole-trace fold grows Cum in place.
func windowUnion(rd *Round, u core.Set) core.Set {
	if u.Universe() != rd.N {
		u = core.NewSet(rd.N)
	}
	u.CopyFrom(rd.Cum)
	rd.Active.ForEach(func(p core.PID) { u.UnionInto(rd.D[p]) })
	return u
}

// uncertain is |⋃_i D(i,R) \ ⋂_i D(i,R)| over the active processes. ⋂ ⊆ ⋃,
// so it is |⋃| − |⋂|, and u holds the union, then shrinks to ⋂.
func uncertain(rd *Round, u core.Set) int {
	u = roundUnion(rd, u)
	c := u.Count()
	rd.Active.ForEach(func(p core.PID) { u.IntersectInto(rd.D[p]) })
	return c - u.Count()
}

// uncertainty is the set uncertain counts, built fresh for a witness.
func uncertainty(rd *Round) core.Set {
	u, in := core.NewSet(rd.N), core.FullSet(rd.N)
	rd.Active.ForEach(func(p core.PID) {
		u.UnionInto(rd.D[p])
		in.IntersectInto(rd.D[p])
	})
	u.DiffInto(in)
	return u
}

// overBudget returns system B's two counts for a round: the highest pid
// whose suspect set exceeds t (−1 if none) and how many exceed f but not t.
func overBudget(args []int, rd *Round) (bad core.PID, q int) {
	bad = -1
	rd.Active.ForEach(func(p core.PID) {
		if c := rd.D[p].Count(); c > args[1] {
			bad = p
		} else if c > args[0] {
			q++
		}
	})
	return bad, q
}

// Name is the atom's name in hoalg's expression syntax.
func (k AtomKind) Name() string { return atoms[k].name }

// Arity is the number of integer arguments the atom takes.
func (k AtomKind) Arity() int { return atoms[k].arity }

// AtomByName finds the atom with the given expression name.
func AtomByName(name string) (AtomKind, bool) {
	for k := range atoms {
		if atoms[k].name == name {
			return AtomKind(k), true
		}
	}
	return 0, false
}

// Holds judges one round — a recorded one or a candidate plan — against the
// clause. Plan enumerators filter with it.
func (k AtomKind) Holds(args []int, rd Round) bool {
	ok, _, _ := atoms[k].eval(args, rd, core.Set{})
	return ok
}

// Checker is the trace-checker driver: a predicate under the given name
// that holds the clause to every round >= from (from = 1 is the whole
// trace) and reports the first offending round and process. A whole-trace
// clause is judged once, on the closed window — every round folded into
// Cum, nothing on top — and reports Round 0, Proc −1. An evaluation that
// builds sets builds them in one row it owns, u, which is also Cum for a
// whole-trace clause and Prev for a prev-round one: a round's eval reads
// Prev before roundUnion rewrites it.
func (k AtomKind) Checker(name string, from int, args ...int) P {
	a := &atoms[k]
	return P{Name: name, Eval: func(t *core.Trace, witness bool) error {
		rd := Round{N: t.N, From: from}
		var u core.Set
		if a.sets {
			u = core.NewSet(t.N)
			if a.scope == wholeTrace {
				rd.Cum = u
			}
		}
		for i := range t.Rounds {
			rec := &t.Rounds[i]
			if rec.R < from {
				continue
			}
			rd.R, rd.Active, rd.D = rec.R, rec.Active, rec.Suspects
			if a.scope == wholeTrace {
				rd.Cum = windowUnion(&rd, u)
				continue
			}
			if ok, p, q := a.eval(args, rd, u); !ok {
				return a.violation(witness, name, args, rd, p, q)
			}
			if a.scope == prevRound {
				rd.Prev = roundUnion(&rd, u)
			}
		}
		if a.scope == wholeTrace {
			rd.R, rd.Active, rd.D = 0, core.Set{}, nil
			if ok, _, q := a.eval(args, rd, u); !ok {
				return a.violation(witness, name, args, rd, -1, q)
			}
		}
		return nil
	}}
}

// violation records the witness of a failed eval, when one is wanted: the
// round, the pair, the clause's args and window start and what keep
// detaches, in one allocation. Nothing is rendered here. Unwanted, the
// failure is the shared errFails.
func (a *atomDef) violation(wanted bool, name string, args []int, rd Round, p, q core.PID) error {
	if !wanted {
		return errFails
	}
	v := Violation{Predicate: name, Round: rd.R, Proc: p, def: a}
	if a.keep == nil {
		out := v
		return &out
	}
	w := &witnessed{Violation: v, witness: witness{args: args, from: rd.From, q: q}}
	w.sets[0], w.sets[1] = a.keep(args, rd, p, q)
	w.Violation.w = &w.witness
	return &w.Violation
}

// witness is what a clause's text quotes beyond the Violation's own fields:
// the clause's args and window start, the second process and at most two
// sets.
type witness struct {
	args []int
	from int
	q    core.PID
	sets [2]core.Set
}

// witnessed is a Violation allocated together with its witness.
type witnessed struct {
	Violation
	witness
}

// keepNone is keep for a clause whose text quotes no set.
func keepNone([]int, Round, core.PID, core.PID) (a, b core.Set) { return a, b }
