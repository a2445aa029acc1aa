package hoalg

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// stateID renders a state field by field, nil Unions apart from empty.
func stateID(st EnumState) string {
	return fmt.Sprintf("%d %s %s %s %v %s", st.R, st.Active, st.Suspected, st.PrevUnion, st.Unions == nil, st.Unions)
}

// next is the state the mc driver (adversary.Enumerated) reaches by playing
// plan from st.
func next(n int, st EnumState, plan core.RoundPlan) EnumState {
	u := core.UnionAll(n, plan.Suspects)
	return EnumState{R: st.R + 1, Active: st.Active.Diff(plan.Crashes),
		Suspected: st.Suspected.Union(u), PrevUnion: u,
		Unions: append(st.Unions[:len(st.Unions):len(st.Unions)], u)}
}

// TestCompiledEnumMemoIsInvisible: for every catalog model at n=3 and every
// state a 2-round walk reaches (3 rounds for the windowed models), the list
// a long-lived compiled Enum returns — on its first call for the state, its
// second and its tenth — is the list a freshly compiled Enum computes, and
// so are its labels.
func TestCompiledEnumMemoIsInvisible(t *testing.T) {
	const n = 3
	p := Params{N: n, F: 1, K: 2, Stab: 1}
	for _, m := range Catalog() {
		e := m.Build(p)
		rounds := 2
		if e.Op == OpEventually {
			rounds = 3
		}
		kept, err := e.EnumBranches(n)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for b, branch := range kept {
			states := 0
			seen := make(map[string]bool)
			var walk func(st EnumState)
			walk = func(st EnumState) {
				if seen[stateID(st)] {
					return
				}
				seen[stateID(st)] = true
				states++
				fresh, err := e.EnumBranches(n)
				if err != nil {
					t.Fatal(err)
				}
				want := fresh[b].Enum(st)
				for call := 1; call <= 10; call++ {
					if got := branch.Enum(st); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s branch %q, state %s, call %d: %d plans, a fresh compile lists %d (or their contents differ)",
							m.Name, branch.Expr, stateID(st), call, len(got.Plans), len(want.Plans))
					}
				}
				if st.R < rounds {
					for _, plan := range want.Plans {
						walk(next(n, st, plan))
					}
				}
			}
			walk(EnumState{R: 1, Active: core.FullSet(n),
				Suspected: core.NewSet(n), PrevUnion: core.NewSet(n)})
			if states < 2 {
				t.Fatalf("%s branch %q: walked %d states", m.Name, branch.Expr, states)
			}
		}
	}
}

// TestCompiledEnumKeysOnUnions: a windowed clause reads the per-round
// history, so two states equal in everything but Unions — and one that did
// not record Unions at all — are three entries with their own lists.
func TestCompiledEnumKeysOnUnions(t *testing.T) {
	const n = 3
	e := Eventually(1, NeverSuspected())
	enum, err := e.CompileEnum(n)
	if err != nil {
		t.Fatal(err)
	}
	at := func(unions []core.Set) EnumState {
		return EnumState{R: 4, Active: core.FullSet(n),
			Suspected: core.SetOf(n, 0, 1), PrevUnion: core.SetOf(n, 0), Unions: unions}
	}
	// Same cumulative {0,1} and previous-round {0}; what differs is whether
	// process 1 was suspected inside the window (round 2) or before it.
	states := []struct {
		name string
		st   EnumState
	}{
		{"before", at([]core.Set{core.SetOf(n, 0, 1), core.SetOf(n, 0), core.SetOf(n, 0)})},
		{"inside", at([]core.Set{core.SetOf(n, 0), core.SetOf(n, 0, 1), core.SetOf(n, 0)})},
		{"unrecorded", at(nil)},
		{"empty", at([]core.Set{})},
	}
	lists := make(map[string][]core.RoundPlan)
	for _, visit := range []string{"first", "second"} {
		for _, c := range states {
			fresh, err := e.CompileEnum(n)
			if err != nil {
				t.Fatal(err)
			}
			lists[c.name] = enum(c.st).Plans
			if want := fresh(c.st).Plans; !reflect.DeepEqual(lists[c.name], want) {
				t.Fatalf("%s visit, Unions %s: %d plans, a fresh compile lists %d", visit, c.name, len(lists[c.name]), len(want))
			}
		}
	}
	if len(lists["before"]) <= len(lists["inside"]) {
		t.Fatalf("suspecting p1 inside the window must shrink the family: %d plans before, %d inside",
			len(lists["before"]), len(lists["inside"]))
	}
	// Without the history the window degrades to the cumulative set {0,1};
	// an empty history is a recorded one with nothing in the window.
	if len(lists["unrecorded"]) != len(lists["inside"]) || len(lists["empty"]) <= len(lists["before"]) {
		t.Fatalf("nil and empty Unions must not share an entry: unrecorded %d, empty %d, before %d, inside %d plans",
			len(lists["unrecorded"]), len(lists["empty"]), len(lists["before"]), len(lists["inside"]))
	}
}

// TestTuplesRejectedCandidatesAllocateNothing: candidates are judged in one
// scratch assignment, so a filter that admits nothing leaves only tuples'
// fixed set-up — not a slice and 2n sets per candidate.
func TestTuplesRejectedCandidatesAllocateNothing(t *testing.T) {
	const n = 3
	active := core.FullSet(n)
	per := make(map[core.PID][]core.Set)
	active.ForEach(func(p core.PID) { per[p] = subsets(n, without(active, p), -1) })
	candidates := 0
	reject := func([]core.Set) bool { candidates++; return false }
	allocs := testing.AllocsPerRun(20, func() {
		if plans := tuples(n, active, per, reject); len(plans) != 0 {
			t.Fatalf("%d plans admitted", len(plans))
		}
	})
	if candidates < 64 {
		t.Fatalf("filter saw %d candidates, want 4^3 per run", candidates)
	}
	// Measured 4 (members, odometer, scratch, the shared empty set).
	if allocs > 5 {
		t.Fatalf("tuples allocated %.0f times over 64 rejected candidates, want <= 5", allocs)
	}
}
