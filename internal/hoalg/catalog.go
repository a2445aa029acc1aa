package hoalg

import (
	"fmt"
	"sort"
)

// Params instantiates a catalog model for a concrete system size.
type Params struct {
	N    int // processes
	F    int // fault budget
	K    int // k-set bound
	Stab int // stabilization round for eventual models
}

// Model is one derived model in the catalog: a named expression family
// following the elementary-pattern derivations of arXiv 2004.10619.
type Model struct {
	Name  string
	Ref   string // paper locus the expression encodes
	Desc  string
	New   bool // not expressible by the repo's pre-algebra predicates
	Build func(p Params) *Expr
}

// catalog is ordered as presented: the paper's §2–§5 models first, then
// the derived combinations the algebra makes expressible.
var catalog = []Model{
	{
		Name:  "sync-omission",
		Ref:   "eq. (1)",
		Desc:  "synchronous message passing, ≤f send-omission faults",
		Build: func(p Params) *Expr { return SendOmission(p.F) },
	},
	{
		Name:  "sync-crash",
		Ref:   "eqs. (1)+(2)",
		Desc:  "synchronous message passing, ≤f crash faults",
		Build: func(p Params) *Expr { return SyncCrash(p.F) },
	},
	{
		Name:  "async",
		Ref:   "eq. (3)",
		Desc:  "asynchronous message passing, ≤f crashes (n−f heard per round)",
		Build: func(p Params) *Expr { return PerRound(p.F) },
	},
	{
		Name:  "shared-memory",
		Ref:   "eqs. (3)+(4)",
		Desc:  "asynchronous SWMR shared memory, ≤f crashes",
		Build: func(p Params) *Expr { return SharedMemory(p.F) },
	},
	{
		Name:  "atomic-snapshot",
		Ref:   "§2 item 5",
		Desc:  "f-resilient atomic-snapshot shared memory",
		Build: func(p Params) *Expr { return AtomicSnapshot(p.F) },
	},
	{
		Name:  "immediate-snapshot",
		Ref:   "§2 item 5 + [4]",
		Desc:  "iterated immediate snapshots (wait-free)",
		Build: func(p Params) *Expr { return ImmediateSnapshot(p.N) },
	},
	{
		Name:  "kset-detector",
		Ref:   "§3",
		Desc:  "k-set fault detector: per-round uncertainty below k",
		Build: func(p Params) *Expr { return KSetEq3(p.K) },
	},
	{
		Name:  "b-system",
		Ref:   "§2 item 3",
		Desc:  "counterexample system B: ≤t processes may miss up to t, rest ≤f",
		Build: func(p Params) *Expr { return BSys(p.F, p.F+1) },
	},
	{
		Name:  "eventually-s",
		Ref:   "§2 item 6 / §7",
		Desc:  "eventual accuracy: after stabilization someone is never suspected",
		Build: func(p Params) *Expr { return Eventually(p.Stab, NeverSuspected()) },
	},
	{
		Name:  "semi-sync",
		Ref:   "eq. (5) + eq. (3)",
		New:   true,
		Desc:  "DDS-style identical suspicions under the async budget",
		Build: func(p Params) *Expr { return And(Identical(), PerRound(p.F)) },
	},
	{
		Name:  "no-mutual-miss-async",
		Ref:   "§2 item 4 alt + eq. (3)",
		New:   true,
		Desc:  "async budget where misses never form 2-cycles",
		Build: func(p Params) *Expr { return And(NoMutualMiss(), PerRound(p.F)) },
	},
	{
		Name: "eventually-sync",
		Ref:  "eq. (1) windowed, §7",
		New:  true,
		Desc: "eventually synchronous: eq. (1) holds from round stab+1 on",
		Build: func(p Params) *Expr {
			return Eventually(p.Stab, And(SelfTrusting(), AtMostSuspected(p.F)))
		},
	},
	{
		Name:  "kset-or-budget",
		Ref:   "§3 ∨ eq. (3)",
		New:   true,
		Desc:  "rounds governed by a k-set detector or the async budget",
		Build: func(p Params) *Expr { return Or(KSetEq3(p.K), PerRound(p.F)) },
	},
	{
		Name:  "selftrust-kset",
		Ref:   "§3 + eq. (1) clause",
		New:   true,
		Desc:  "self-trusting k-set detector",
		Build: func(p Params) *Expr { return And(SelfTrusting(), KSetEq3(p.K)) },
	},
}

// Catalog returns the derived-model catalog in presentation order.
func Catalog() []Model {
	out := make([]Model, len(catalog))
	copy(out, catalog)
	return out
}

// Lookup finds a catalog model by name.
func Lookup(name string) (Model, bool) {
	for _, m := range catalog {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// Names lists the catalog model names, sorted.
func Names() []string {
	out := make([]string, len(catalog))
	for i, m := range catalog {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// Resolve turns a -model argument into an expression: a catalog model name
// instantiated with p, or failing that a parsed expression string.
func Resolve(s string, p Params) (*Expr, error) {
	if m, ok := Lookup(s); ok {
		return m.Build(p), nil
	}
	e, err := Parse(s)
	if err != nil {
		return nil, fmt.Errorf("%w (not a catalog model either; known models: %v)", err, Names())
	}
	return e, nil
}
