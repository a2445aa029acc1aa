package hoalg

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestOracleTracesSatisfyModel: sampled oracle runs are the plain-run
// counterpart of the exhaustive enumeration — every trace a model's
// compiled oracle produces must satisfy that model's compiled checker.
func TestOracleTracesSatisfyModel(t *testing.T) {
	p := Params{N: 3, F: 1, K: 2, Stab: 1}
	for _, m := range Catalog() {
		e := m.Build(p)
		pred := e.Compile()
		for seed := int64(1); seed <= 20; seed++ {
			oracle, err := e.Oracle(p.N, seed)
			if err != nil {
				t.Fatalf("%s: Oracle: %v", m.Name, err)
			}
			tr, err := core.CollectTrace(p.N, 4, oracle)
			if err != nil {
				t.Fatalf("%s seed %d: collect: %v", m.Name, seed, err)
			}
			if err := pred.Check(tr); err != nil {
				t.Fatalf("%s seed %d: oracle trace escapes its own model: %v\n%s",
					m.Name, seed, err, tr)
			}
		}
	}
}

// TestEnumBranchesSplitsOr: a top-level disjunction yields one enumeration
// branch per disjunct (in order), anything else a single branch.
func TestEnumBranchesSplitsOr(t *testing.T) {
	e := Or(KSetEq3(2), PerRound(1), Identical())
	branches, err := e.EnumBranches(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 3 {
		t.Fatalf("want 3 branches, got %d", len(branches))
	}
	for i, b := range branches {
		if !b.Expr.Equal(e.Kids[i]) {
			t.Fatalf("branch %d is %q, want %q", i, b.Expr, e.Kids[i])
		}
		if b.Enum == nil {
			t.Fatalf("branch %d has no enumerator", i)
		}
	}
	single, err := PerRound(1).EnumBranches(3)
	if err != nil || len(single) != 1 {
		t.Fatalf("non-disjunction should be one branch: %d, %v", len(single), err)
	}
}

// TestCompileEnumRejections: disjunctions need EnumBranches, kset caps n at
// 3, and any branch failing to compile fails the whole split.
func TestCompileEnumRejections(t *testing.T) {
	if _, err := Or(KSetEq3(2), PerRound(1)).CompileEnum(3); err == nil || !strings.Contains(err.Error(), "EnumBranches") {
		t.Fatalf("CompileEnum accepted a disjunction: %v", err)
	}
	if _, err := KSetEq3(2).CompileEnum(4); err == nil || !strings.Contains(err.Error(), "n=4") {
		t.Fatalf("kset enumeration accepted n=4: %v", err)
	}
	if _, err := Or(KSetEq3(2), PerRound(1)).EnumBranches(4); err == nil {
		t.Fatal("EnumBranches accepted a kset branch at n=4")
	}
}

// TestCompileEnumWindowSemantics: an eventually(stab, ...) leaves rounds
// up to stab unconstrained and enforces the body from stab+1 on.
func TestCompileEnumWindowSemantics(t *testing.T) {
	const n = 3
	enum, err := Eventually(1, AtMostSuspected(0)).CompileEnum(n)
	if err != nil {
		t.Fatal(err)
	}
	st := EnumState{R: 1, Active: core.FullSet(n),
		Suspected: core.NewSet(n), PrevUnion: core.NewSet(n)}
	round1 := enum(st)
	nonEmpty := 0
	for _, plan := range round1 {
		for _, d := range plan.Suspects {
			if !d.Empty() {
				nonEmpty++
				break
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("round 1 is inside the window and should allow suspicions")
	}
	st.R = 2
	for _, plan := range enum(st) {
		for _, d := range plan.Suspects {
			if !d.Empty() {
				t.Fatalf("round 2 is past stab=1; atmost(0) must forbid suspicions, got %v", plan.Suspects)
			}
		}
	}
}

// TestCompileEnumNegatedAtom: negation on an atom enumerates per-round
// violations — every emitted plan must break the atom that round.
func TestCompileEnumNegatedAtom(t *testing.T) {
	const n = 3
	enum, err := Not(PerRound(0)).CompileEnum(n)
	if err != nil {
		t.Fatal(err)
	}
	plans := enum(EnumState{R: 1, Active: core.FullSet(n),
		Suspected: core.NewSet(n), PrevUnion: core.NewSet(n)})
	if len(plans) == 0 {
		t.Fatal("negated perround(0) admits no plans")
	}
	for _, plan := range plans {
		broke := false
		for _, d := range plan.Suspects {
			if d.Count() > 0 {
				broke = true
			}
		}
		if !broke {
			t.Fatalf("plan %v satisfies perround(0) instead of violating it", plan.Suspects)
		}
	}
}

// walkEnum follows every path of a compiled enumerator for the given number
// of rounds, evolving the state as the mc driver does (adversary.Enumerated),
// and hands each complete path to visit as a trace.
func walkEnum(n, rounds int, enum Enum, visit func(*core.Trace)) {
	var walk func(st EnumState, recs []core.RoundRecord)
	walk = func(st EnumState, recs []core.RoundRecord) {
		if st.R > rounds {
			visit(&core.Trace{N: n, Rounds: recs})
			return
		}
		for _, plan := range enum(st) {
			live := st.Active.Diff(plan.Crashes)
			u := core.UnionAll(n, plan.Suspects)
			walk(EnumState{R: st.R + 1, Active: live,
				Suspected: st.Suspected.Union(u), PrevUnion: u,
				Unions: append(st.Unions[:len(st.Unions):len(st.Unions)], u)},
				append(recs[:len(recs):len(recs)], core.RoundRecord{R: st.R,
					Suspects: plan.Suspects, Deliver: make([]core.Set, n),
					Active: live, Crashed: live.Complement()}))
		}
	}
	walk(EnumState{R: 1, Active: core.FullSet(n),
		Suspected: core.NewSet(n), PrevUnion: core.NewSet(n)}, nil)
}

// TestEnumPathsMatchChecker: the plan filter and the trace checker run the
// same atom-table entry, so EVERY path of a compiled enumerator must pass
// the compiled checker of the same expression — for each atom over 2
// rounds, for eventually(1, atom) over 3 — and every round of a negated
// atom's paths must fail the atom's checker (on the prefix up to that round
// for the whole-trace clauses, on the round alone otherwise).
func TestEnumPathsMatchChecker(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumerator sweep")
	}
	const n = 3
	atoms := []*Expr{
		SelfTrusting(), AtMostSuspected(1), PerRound(1), KSetEq3(2),
		NoMutualMiss(), SomeoneSeen(), Identical(), Chain(), Immediacy(),
		And(AtMostSuspected(1), Propagates()), NeverSuspected(), BSys(1, 2),
	}
	for _, a := range atoms {
		for _, c := range []struct {
			e      *Expr
			rounds int
		}{{a, 2}, {Eventually(1, a), 3}} {
			enum, err := c.e.CompileEnum(n)
			if c.e.Op == OpEventually && a.Op == OpAnd {
				if err == nil {
					t.Fatalf("%s: a windowed propagates must be refused", c.e)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: CompileEnum: %v", c.e, err)
			}
			check, paths := c.e.Compile(), 0
			walkEnum(n, c.rounds, enum, func(tr *core.Trace) {
				paths++
				if err := check.Check(tr); err != nil {
					t.Fatalf("%s: enumerated path fails its own checker: %v\n%s", c.e, err, tr)
				}
			})
			if paths == 0 {
				t.Fatalf("%s: no paths enumerated", c.e)
			}
		}

		if a.Op != OpAtom || a.Atom == AtomSelfTrust {
			continue // !selftrust and !propagates are not enumerable
		}
		enum, err := Not(a).CompileEnum(n)
		if err != nil {
			t.Fatalf("!%s: CompileEnum: %v", a, err)
		}
		check, paths := a.Compile(), 0
		whole := a.Atom == AtomAtMost || a.Atom == AtomNeverSusp
		walkEnum(n, 2, enum, func(tr *core.Trace) {
			paths++
			for r := 1; r <= tr.Len(); r++ {
				part := tr.Prefix(r)
				if !whole {
					part = &core.Trace{N: n, Rounds: tr.Rounds[r-1 : r]}
				}
				if check.Check(part) == nil {
					t.Fatalf("!%s: round %d of an enumerated path satisfies the atom\n%s", a, r, tr)
				}
			}
		})
		if paths == 0 {
			t.Fatalf("!%s: no paths enumerated", a)
		}
	}
}
