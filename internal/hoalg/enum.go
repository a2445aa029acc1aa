package hoalg

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/predicate"
)

// EnumState is what a compiled enumerator may condition on: the round, the
// processes still emitting, and the suspicion history the model's predicate
// constrains (cumulative for eq. (1)-style total budgets, previous-round
// union for eq. (2)-style propagation).
type EnumState struct {
	// R is the round being planned (starts at 1).
	R int

	// Active is the set of processes that will emit this round unless the
	// plan crashes them.
	Active core.Set

	// Suspected is ⋃_{r'<R} ⋃_i D(i,r'), every process suspected so far.
	Suspected core.Set

	// PrevUnion is ⋃_i D(i,R-1), the previous round's suspicion union
	// (empty in round 1).
	PrevUnion core.Set

	// Unions, when non-nil, is the full per-round history:
	// Unions[i] = ⋃_j D(j,i+1) for rounds 1..R-1. Only windowed
	// (eventually) constraints consult it; a driver that does not record
	// it degrades those windows to the cumulative Suspected set.
	Unions []core.Set
}

// Enum lists every round plan the model allows from the given state. The
// list must be non-empty for satisfiable models, deterministic, and in a
// stable order — the mc choice tree is built from its indices.
//
// A compiled Enum is a memoised function of the state: the family is
// computed on the first call for a state and the same one is returned on
// every later one, to any goroutine. Callers must not mutate it.
type Enum func(st EnumState) *Family

// Family is what an Enum lists for one state: the admitted plans and, for
// each, its symmetry label (planHash) — mc's symmetry reduction explores
// only the first of the options at a node that share a label.
type Family struct {
	Plans  []core.RoundPlan
	Labels []uint64
}

// gen is a generator before memoise: the plan list alone, computed afresh.
type gen func(st EnumState) []core.RoundPlan

// Branch pairs one top-level disjunct of an expression with its compiled
// enumerator (see EnumBranches).
type Branch struct {
	Expr *Expr
	Enum Enum
}

// CompileEnum lowers the expression to an exhaustive per-round plan
// enumerator for n processes. The enumeration strategy is chosen from the
// expression's shape:
//
//   - a conjunction containing propagates (eq. (2)) compiles to the
//     crash-style generator: previously suspected processes really crash,
//     their suspicion is carried by every live process, and fresh
//     suspicions spend the atmost budget — the family the hand-written
//     sync-crash enumerator produced;
//   - any other conjunction compiles to a filtered product: per process,
//     every subset of the other active processes up to the tightest
//     per-round cap the conjuncts imply, filtered by the per-round
//     semantics of each conjunct.
//
// The compiled enumerators reproduce the four hand-written families they
// replaced (per-round budget, send-omission, sync-crash, k-set) byte for
// byte (plan lists in identical order) on the reachable states the mc
// explorer visits; planListGolden in internal/adversary holds them to that.
//
// A top-level disjunction is rejected: one per-round plan family cannot
// soundly enumerate an Or (plans could mix branches across rounds and the
// resulting trace satisfy neither disjunct) — use EnumBranches and explore
// each branch separately. Negation is supported on atoms only and is
// enumerated per round (every round violates the atom), a sound
// strengthening of the whole-trace semantics. n is capped at 4 (3 when the
// expression contains kset) to keep the per-round families small.
func (e *Expr) CompileEnum(n int) (Enum, error) {
	if e.Op == OpOr {
		return nil, fmt.Errorf("hoalg: cannot enumerate disjunction %q as one plan family (rounds could mix branches and satisfy neither); enumerate each branch via EnumBranches", e)
	}
	maxN := 4
	if e.containsAtom(predicate.AtomKSet) {
		maxN = 3
	}
	if n < 1 || n > maxN {
		return nil, fmt.Errorf("hoalg: enumerating %q supports 1 <= n <= %d, got n=%d", e, maxN, n)
	}
	conjs, err := collectConjuncts(e, false, 0, nil)
	if err != nil {
		return nil, err
	}
	for _, cj := range conjs {
		if cj.atom.Atom == predicate.AtomPropagates && !cj.neg {
			gen, err := compileCrashEnum(conjs, cj, n)
			if err != nil {
				return nil, err
			}
			return memoise(n, gen), nil
		}
	}
	return memoise(n, compileProductEnum(conjs, n)), nil
}

// memoise makes gen pay for each distinct state once, labels included. A
// plan family is a function of the suspicion history alone, and an
// exhaustive exploration replays every schedule from round 1, so it asks
// for the same few states thousands of times over. The table is unbounded:
// CompileEnum's n <= 4 guard bounds the states reachable in the handful of
// rounds a sweep runs (DESIGN §11, Exhaustive sweeps, has the measured
// sizes). The lock is held across gen, so concurrent explorers of one Enum
// compute a state once and all see the same family.
func memoise(n int, gen gen) Enum {
	var (
		mu       sync.Mutex
		families = make(map[string]*Family)
	)
	return func(st EnumState) *Family {
		var buf [32]byte
		key := st.appendKey(buf[:0], n)
		mu.Lock()
		defer mu.Unlock()
		fam, ok := families[string(key)]
		if !ok {
			fam = &Family{Plans: gen(st)}
			fam.Labels = make([]uint64, len(fam.Plans))
			for i := range fam.Plans {
				fam.Labels[i] = planHash(&fam.Plans[i])
			}
			families[string(key)] = fam
		}
		return fam
	}
}

// planHash fingerprints a round plan for the symmetry reduction: two
// options with equal hashes at one node are the same plan.
func planHash(pl *core.RoundPlan) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for i, d := range pl.Suspects {
		mix(uint64(i) + 0x100)
		d.ForEach(func(p core.PID) { mix(uint64(p) + 1) })
	}
	mix(0x200)
	pl.Crashes.ForEach(func(p core.PID) { mix(uint64(p) + 1) })
	for i, d := range pl.Deliver {
		mix(uint64(i) + 0x300)
		d.ForEach(func(p core.PID) { mix(uint64(p) + 1) })
	}
	return h
}

// appendKey encodes everything the state carries, and so everything a
// generator can read: R, the three sets, whether Unions was recorded at all
// (window tells nil from empty) and each of its entries in order. Two states
// share a key only when they are equal field by field.
func (st EnumState) appendKey(key []byte, n int) []byte {
	bits := func(s core.Set) byte { // n <= 4: a set is four bits
		var b byte
		for p := 0; p < n; p++ {
			if s.Has(core.PID(p)) {
				b |= 1 << p
			}
		}
		return b
	}
	key = append(key, byte(st.R), byte(st.R>>8), byte(st.R>>16), byte(st.R>>24),
		bits(st.Active), bits(st.Suspected), bits(st.PrevUnion))
	if st.Unions == nil {
		return key
	}
	key = append(key, 0xff) // not a set over n <= 4 processes
	for _, u := range st.Unions {
		key = append(key, bits(u))
	}
	return key
}

// EnumBranches compiles each top-level disjunct separately (a single branch
// for non-disjunctions). Exploring every branch covers a sound
// under-approximation of the Or: each branch's traces satisfy that branch
// and hence the disjunction.
func (e *Expr) EnumBranches(n int) ([]Branch, error) {
	kids := []*Expr{e}
	if e.Op == OpOr {
		kids = e.Kids
	}
	out := make([]Branch, 0, len(kids))
	for _, k := range kids {
		en, err := k.CompileEnum(n)
		if err != nil {
			return nil, err
		}
		out = append(out, Branch{Expr: k, Enum: en})
	}
	return out, nil
}

// conjunct is one atom of a flattened conjunction: possibly negated,
// constrained only from round stab+1 on (stab 0 = every round).
type conjunct struct {
	atom *Expr
	neg  bool
	stab int
}

func collectConjuncts(e *Expr, neg bool, stab int, out []conjunct) ([]conjunct, error) {
	switch e.Op {
	case OpAtom:
		if neg && e.Atom == predicate.AtomSelfTrust {
			return nil, fmt.Errorf("hoalg: cannot enumerate !selftrust (enumerated plans never self-suspect)")
		}
		if neg && e.Atom == predicate.AtomPropagates {
			return nil, fmt.Errorf("hoalg: cannot enumerate !propagates")
		}
		return append(out, conjunct{atom: e, neg: neg, stab: stab}), nil
	case OpAnd:
		var err error
		for _, k := range e.Kids {
			if out, err = collectConjuncts(k, neg, stab, out); err != nil {
				return nil, err
			}
		}
		return out, nil
	case OpNot:
		if e.Kids[0].Op != OpAtom {
			return nil, fmt.Errorf("hoalg: enumeration supports negation on atoms only, got !(%s)", e.Kids[0])
		}
		return collectConjuncts(e.Kids[0], !neg, stab, out)
	case OpForever:
		return collectConjuncts(e.Kids[0], neg, stab, out)
	case OpEventually:
		if s := e.Args[0]; s > stab {
			stab = s
		}
		return collectConjuncts(e.Kids[0], neg, stab, out)
	case OpOr:
		return nil, fmt.Errorf("hoalg: nested disjunction %q is not enumerable; lift | to the top level", e)
	}
	return nil, fmt.Errorf("hoalg: unknown op %d", e.Op)
}

// perProcCap is the tightest per-process suspect-set size any active
// conjunct implies this round, or -1 for unbounded. Capping the generated
// subsets (rather than only filtering) is what keeps product enumeration
// tractable — and byte-identical to the bespoke generators, since a
// size-capped subset list is an order-preserving subsequence of the
// unbounded one.
func perProcCap(conjs []conjunct, st EnumState) int {
	c := -1
	tighten := func(f int) {
		if c < 0 || f < c {
			c = f
		}
	}
	for _, cj := range conjs {
		if cj.neg || st.R <= cj.stab {
			continue
		}
		switch cj.atom.Atom {
		case predicate.AtomPerRound, predicate.AtomAtMost:
			tighten(cj.atom.Args[0])
		case predicate.AtomBSys:
			tighten(cj.atom.Args[1])
		}
	}
	return c
}

func compileProductEnum(conjs []conjunct, n int) gen {
	return func(st EnumState) []core.RoundPlan {
		per := make(map[core.PID][]core.Set)
		bound := perProcCap(conjs, st)
		st.Active.ForEach(func(p core.PID) {
			per[p] = subsets(n, without(st.Active, p), bound)
		})
		return tuples(n, st.Active, per, roundAdmits(conjs, st, st.Active, n))
	}
}

// compileCrashEnum is the eq. (2) strategy, replicating EnumSyncCrash's
// generation: a process suspected in round r really crashes at r+1, every
// live process carries the cumulative suspicions plus the crashes, and the
// adversary spends what remains of the atmost budget on fresh suspicions.
// The remaining conjuncts act as a plan filter.
func compileCrashEnum(conjs []conjunct, prop conjunct, n int) (gen, error) {
	if prop.stab != 0 {
		return nil, fmt.Errorf("hoalg: cannot enumerate a windowed propagates (crash dynamics must hold from round 1)")
	}
	f := -1
	for _, cj := range conjs {
		if !cj.neg && cj.stab == 0 && cj.atom.Atom == predicate.AtomAtMost {
			if b := cj.atom.Args[0]; f < 0 || b < f {
				f = b
			}
		}
	}
	if f < 0 {
		return nil, fmt.Errorf("hoalg: enumerating propagates requires a conjoined atmost(f) total budget")
	}
	return func(st EnumState) []core.RoundPlan {
		// Processes fully suspected last round crash now; they stop
		// emitting and everyone must keep suspecting them.
		crashes := st.PrevUnion.Intersect(st.Active)
		carried := st.Suspected // dead forever-suspected set
		live := st.Active.Diff(crashes)

		// The adversary picks which still-untouched processes start
		// crashing this round, within the total budget f.
		room := f - st.Suspected.Count()
		if room < 0 {
			room = 0
		}
		fresh := subsets(n, live.Diff(st.Suspected), room)

		admits := roundAdmits(conjs, st, live, n)
		var out []core.RoundPlan
		for _, newSusp := range fresh {
			per := make(map[core.PID][]core.Set)
			live.ForEach(func(p core.PID) {
				var opts []core.Set
				for _, miss := range subsets(n, without(newSusp, p), -1) {
					opts = append(opts, carried.Union(crashes).Union(miss))
				}
				per[p] = opts
			})
			for _, pl := range tuples(n, live, per, admits) {
				pl.Crashes = crashes.Clone()
				// Crashed processes carry empty D entries already (they
				// do not emit), matching the engine contract.
				out = append(out, pl)
			}
		}
		return out
	}, nil
}

// roundAdmits returns the plan filter for one state: every in-window
// conjunct's atom-table entry — the clause body the compiled checker runs —
// judged against a candidate assignment of suspect sets (ds, indexed by
// pid). active is the set the round's quantifiers range over.
func roundAdmits(conjs []conjunct, st EnumState, active core.Set, n int) func(ds []core.Set) bool {
	type windowed struct {
		conjunct
		rd predicate.Round
	}
	var in []windowed
	for _, cj := range conjs {
		if st.R > cj.stab {
			in = append(in, windowed{cj, st.window(cj.stab, n, active)})
		}
	}
	return func(ds []core.Set) bool {
		for _, w := range in {
			w.rd.D = ds
			if w.atom.Atom.Holds(w.atom.Args, w.rd) == w.neg {
				return false
			}
		}
		return true
	}
}

// window is the context a clause constrained from round stab+1 on sees at
// this state: Cum is the suspicion union over past rounds > stab, Prev the
// previous round's union unless round stab+1 opens the window (there is
// then no in-window round to propagate from; in round 1 PrevUnion is empty
// anyway).
func (st EnumState) window(stab, n int, active core.Set) predicate.Round {
	rd := predicate.Round{N: n, R: st.R, Active: active, From: stab + 1, Cum: st.Suspected}
	if stab > 0 && st.Unions != nil {
		rd.Cum = core.NewSet(n)
		for i := stab; i < len(st.Unions); i++ {
			rd.Cum.UnionInto(st.Unions[i])
		}
	}
	if st.R > stab+1 {
		rd.Prev = st.PrevUnion
	}
	return rd
}

// without returns pool minus p.
func without(pool core.Set, p core.PID) core.Set {
	s := pool.Clone()
	s.Remove(p)
	return s
}

// subsets lists every subset of pool, smallest first, as n-sized sets.
// The order is stable: subsets are generated by increasing bitmask over
// pool's members.
func subsets(n int, pool core.Set, maxSize int) []core.Set {
	members := pool.Members()
	out := []core.Set{}
	for mask := 0; mask < 1<<len(members); mask++ {
		s := core.NewSet(n)
		for b, p := range members {
			if mask&(1<<b) != 0 {
				s.Add(p)
			}
		}
		if maxSize < 0 || s.Count() <= maxSize {
			out = append(out, s)
		}
	}
	return out
}

// tuples builds one plan per combination of per-process suspect sets,
// odometer order, keeping those ok admits. perProc[i] lists the candidate
// D(i,r) for live process i; inactive processes get empty sets. Candidates
// are judged in one scratch assignment that borrows the perProc sets; only
// an admitted tuple is copied out, so a filter that rejects everything costs
// no allocation per candidate.
func tuples(n int, active core.Set, perProc map[core.PID][]core.Set, ok func(ds []core.Set) bool) []core.RoundPlan {
	lives := active.Members()
	idx := make([]int, len(lives))
	cand := make([]core.Set, n)
	empty := core.NewSet(n)
	for i := range cand {
		cand[i] = empty
	}
	for _, p := range lives {
		cand[p] = perProc[p][0]
	}
	var out []core.RoundPlan
	for {
		if ok == nil || ok(cand) {
			ds := make([]core.Set, n)
			for i := range ds {
				ds[i] = cand[i].Clone()
			}
			out = append(out, core.RoundPlan{Suspects: ds})
		}
		j := len(idx) - 1
		for j >= 0 && idx[j]+1 == len(perProc[lives[j]]) {
			idx[j] = 0
			cand[lives[j]] = perProc[lives[j]][0]
			j--
		}
		if j < 0 {
			return out
		}
		idx[j]++
		cand[lives[j]] = perProc[lives[j]][idx[j]]
	}
}
