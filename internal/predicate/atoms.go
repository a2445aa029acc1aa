package predicate

import (
	"fmt"

	"repro/internal/core"
)

// AtomKind names one elementary clause over the suspect sets D(i,r). The
// atom table below is the single place each clause is defined: the named
// constructors of this package, hoalg's Compile and hoalg's plan enumerator
// are all drivers over its entries (DESIGN §17).
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
// where there is none) — without allocating it; detail renders the witness
// for a Violation.
type atomDef struct {
	name   string // expression syntax
	arity  int
	scope  scope
	eval   func(args []int, rd Round) (ok bool, p, q core.PID)
	detail func(args []int, rd Round, p, q core.PID) string
}

var atoms = [...]atomDef{
	AtomSelfTrust: {
		name: "selftrust",
		eval: func(_ []int, rd Round) (bool, core.PID, core.PID) {
			return firstProc(rd, func(p core.PID) bool { return rd.D[p].Has(p) })
		},
		detail: func([]int, Round, core.PID, core.PID) string { return "process suspects itself" },
	},
	AtomAtMost: {
		name: "atmost", arity: 1, scope: wholeTrace,
		eval: func(args []int, rd Round) (bool, core.PID, core.PID) {
			return windowUnion(rd).Count() <= args[0], -1, -1
		},
		detail: func(args []int, rd Round, _, _ core.PID) string {
			u := windowUnion(rd)
			return fmt.Sprintf("%d distinct processes suspected (%s), budget %d", u.Count(), u, args[0])
		},
	},
	AtomPerRound: {
		name: "perround", arity: 1,
		eval: func(args []int, rd Round) (bool, core.PID, core.PID) {
			return firstProc(rd, func(p core.PID) bool { return rd.D[p].Count() > args[0] })
		},
		detail: func(args []int, rd Round, p, _ core.PID) string {
			return fmt.Sprintf("|D|=%d > f=%d (%s)", rd.D[p].Count(), args[0], rd.D[p])
		},
	},
	AtomKSet: {
		name: "kset", arity: 1,
		eval: func(args []int, rd Round) (bool, core.PID, core.PID) {
			return uncertainty(rd).Count() < args[0], -1, -1
		},
		detail: func(args []int, rd Round, _, _ core.PID) string {
			unc := uncertainty(rd)
			return fmt.Sprintf("uncertainty %s has size %d ≥ k=%d", unc, unc.Count(), args[0])
		},
	},
	AtomNoMutualMiss: {
		name: "nomutualmiss",
		eval: func(_ []int, rd Round) (bool, core.PID, core.PID) {
			return firstPair(rd, func(i, j core.PID) bool { return rd.D[i].Has(j) && rd.D[j].Has(i) })
		},
		detail: func(_ []int, _ Round, i, j core.PID) string {
			return fmt.Sprintf("processes %d and %d suspect each other", i, j)
		},
	},
	AtomSomeoneSeen: {
		name: "someoneseen",
		eval: func(_ []int, rd Round) (bool, core.PID, core.PID) {
			return roundUnion(rd).Count() < rd.N, -1, -1
		},
		detail: func([]int, Round, core.PID, core.PID) string { return "every process is suspected by someone" },
	},
	AtomIdentical: {
		name: "identical",
		eval: func(_ []int, rd Round) (bool, core.PID, core.PID) {
			first := core.PID(-1)
			ok, p, _ := firstProc(rd, func(p core.PID) bool {
				if first < 0 {
					first = p
				}
				return !rd.D[p].Equal(rd.D[first])
			})
			return ok, p, first
		},
		detail: func(_ []int, rd Round, p, first core.PID) string {
			return fmt.Sprintf("D(%d)=%s differs from %s", p, rd.D[p], rd.D[first])
		},
	},
	AtomChain: {
		name: "chain",
		eval: func(_ []int, rd Round) (bool, core.PID, core.PID) {
			return firstPair(rd, func(i, j core.PID) bool {
				return i < j && !rd.D[i].IsSubset(rd.D[j]) && !rd.D[j].IsSubset(rd.D[i])
			})
		},
		detail: func(_ []int, rd Round, i, j core.PID) string {
			return fmt.Sprintf("D(%d)=%s and D(%d)=%s incomparable", i, rd.D[i], j, rd.D[j])
		},
	},
	AtomImmediacy: {
		name: "immediacy",
		eval: func(_ []int, rd Round) (bool, core.PID, core.PID) {
			return firstPair(rd, func(i, j core.PID) bool {
				return !rd.D[i].Has(j) && !rd.D[i].IsSubset(rd.D[j])
			})
		},
		detail: func(_ []int, rd Round, i, j core.PID) string {
			return fmt.Sprintf("hears %d but D(%d)=%s ⊄ D(%d)=%s", j, i, rd.D[i], j, rd.D[j])
		},
	},
	AtomPropagates: {
		name: "propagates", scope: prevRound,
		eval: func(_ []int, rd Round) (bool, core.PID, core.PID) {
			return firstProc(rd, func(k core.PID) bool { return !rd.Prev.IsSubset(rd.D[k]) })
		},
		detail: func(_ []int, rd Round, k, _ core.PID) string {
			return fmt.Sprintf("D(%d,%d)=%s does not contain round-%d union %s",
				k, rd.R, rd.D[k], rd.R-1, rd.Prev)
		},
	},
	AtomNeverSusp: {
		name: "neversusp", scope: wholeTrace,
		eval: func(_ []int, rd Round) (bool, core.PID, core.PID) {
			return windowUnion(rd).Count() < rd.N, -1, -1
		},
		detail: func(_ []int, rd Round, _, _ core.PID) string {
			if rd.From > 1 {
				return fmt.Sprintf("every process suspected after round %d", rd.From-1)
			}
			return "every process was suspected at some round"
		},
	},
	AtomBSys: {
		// Q, the processes over the f budget, must have at most t members,
		// each within the t budget. The reported offender is the highest
		// pid over t.
		name: "bsys", arity: 2,
		eval: func(args []int, rd Round) (bool, core.PID, core.PID) {
			bad, q := overBudget(args, rd)
			return bad < 0 && q <= args[1], bad, -1
		},
		detail: func(args []int, rd Round, bad, _ core.PID) string {
			if bad >= 0 {
				return fmt.Sprintf("|D|=%d exceeds even the t=%d budget", rd.D[bad].Count(), args[1])
			}
			_, q := overBudget(args, rd)
			return fmt.Sprintf("%d processes exceed the f budget, allowed ≤ t=%d", q, args[1])
		},
	},
}

// firstProc finds the lowest active pid that bad holds of.
func firstProc(rd Round, bad func(p core.PID) bool) (bool, core.PID, core.PID) {
	for p := core.PID(0); int(p) < rd.N; p++ {
		if rd.Active.Has(p) && bad(p) {
			return false, p, -1
		}
	}
	return true, -1, -1
}

// firstPair finds the first ordered pair (i, j) of active pids — j may
// equal i — that bad holds of: lowest i, then lowest j.
func firstPair(rd Round, bad func(i, j core.PID) bool) (bool, core.PID, core.PID) {
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

// roundUnion is ⋃_i D(i,R) over the active processes.
func roundUnion(rd Round) core.Set {
	u := core.NewSet(rd.N)
	rd.Active.ForEach(func(p core.PID) { u.UnionInto(rd.D[p]) })
	return u
}

// windowUnion is the suspect union of rounds From..R.
func windowUnion(rd Round) core.Set {
	u := roundUnion(rd)
	u.UnionInto(rd.Cum)
	return u
}

// uncertainty is ⋃_i D(i,R) \ ⋂_i D(i,R) over the active processes.
func uncertainty(rd Round) core.Set {
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
func overBudget(args []int, rd Round) (bad core.PID, q int) {
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
	ok, _, _ := atoms[k].eval(args, rd)
	return ok
}

// Checker is the trace-checker driver: a predicate under the given name
// that holds the clause to every round >= from (from = 1 is the whole
// trace) and reports the first offending round and process. A whole-trace
// clause is judged once, on the closed window — every round folded into
// Cum, nothing on top — and reports Round 0, Proc −1.
func (k AtomKind) Checker(name string, from int, args ...int) P {
	a := &atoms[k]
	return P{Name: name, Check: func(t *core.Trace) error {
		rd := Round{N: t.N, From: from}
		for i := range t.Rounds {
			rec := &t.Rounds[i]
			if rec.R < from {
				continue
			}
			rd.R, rd.Active, rd.D = rec.R, rec.Active, rec.Suspects
			if a.scope == wholeTrace {
				rd.Cum = windowUnion(rd)
				continue
			}
			if ok, p, q := a.eval(args, rd); !ok {
				return &Violation{Predicate: name, Round: rd.R, Proc: p, Detail: a.detail(args, rd, p, q)}
			}
			if a.scope == prevRound {
				rd.Prev = roundUnion(rd)
			}
		}
		if a.scope == wholeTrace {
			rd.R, rd.Active, rd.D = 0, core.Set{}, nil
			if ok, p, q := a.eval(args, rd); !ok {
				return &Violation{Predicate: name, Proc: -1, Detail: a.detail(args, rd, p, q)}
			}
		}
		return nil
	}}
}
