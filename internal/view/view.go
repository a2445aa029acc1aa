// Package view implements the full-information protocol the paper leans on
// throughout: "run A in full information mode" is how §2 item 3 recreates
// FIFO receptions, how §2 item 4 emulates a write operation, and how
// Corollary 4.4 reasons about which simulated views admit a decision.
//
// In full-information mode a process's round-r message is its entire state:
// its input and everything it has received so far. The package provides the
// recursive View structure, the FullInfo algorithm producing it, knowledge
// queries over views, the §2 item 3 FIFO reconstruction, and the §2 item 4
// emulated write operation.
package view

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// View is what a process knows at the end of a round: its identity and
// input, the round, the suspect set it was handed, and the (recursive)
// views it received. A round-0 view is the initial state (input only).
type View struct {
	// Owner is the process whose knowledge this is.
	Owner core.PID

	// Round is the round at whose end this view was assembled (0 for the
	// initial view).
	Round int

	// Input is the owner's task input.
	Input core.Value

	// Suspected is D(owner, Round); empty for round 0.
	Suspected core.Set

	// Received maps each process the owner heard from in this round to
	// that process's view at the end of the previous round.
	Received map[core.PID]*View

	// Prev is the owner's own view at the end of the previous round —
	// the local state ("such a process may know the message it sent
	// through its local state", §1). Nil for round-0 views.
	Prev *View
}

// Knows reports whether the view contains process q's input — i.e. whether
// a chain of receptions (or the owner's own state chain) connects q's
// initial state to this view.
func (v *View) Knows(q core.PID) bool {
	found := false
	v.walk(func(sub *View) {
		if sub.Owner == q {
			found = true
		}
	})
	return found
}

// KnownSet returns every process whose input the view contains.
func (v *View) KnownSet(n int) core.Set {
	s := core.NewSet(n)
	v.walk(func(sub *View) { s.Add(sub.Owner) })
	return s
}

// HeardFrom returns the processes from which the owner received THIS
// round's messages (the direct receptions, not the transitive closure).
func (v *View) HeardFrom(n int) core.Set {
	s := core.NewSet(n)
	for p := range v.Received {
		s.Add(p)
	}
	return s
}

// At returns the sub-view the owner holds of process q at round r — the
// freshest view of q with Round ≤ r reachable in the reception tree, or
// nil. At(owner, v.Round) is v itself.
func (v *View) At(q core.PID, r int) *View {
	var best *View
	v.walk(func(sub *View) {
		if sub.Owner == q && sub.Round <= r && (best == nil || sub.Round > best.Round) {
			best = sub
		}
	})
	return best
}

// walk visits every view reachable from v (including v), following both
// receptions and the owner's local-state chain. Views form a DAG (the same
// sub-view may be reachable along several paths), so visits are memoized.
func (v *View) walk(fn func(*View)) {
	seen := make(map[*View]bool)
	var rec func(*View)
	rec = func(u *View) {
		if u == nil || seen[u] {
			return
		}
		seen[u] = true
		fn(u)
		rec(u.Prev)
		for _, sub := range u.Received {
			rec(sub)
		}
	}
	rec(v)
}

// String renders a compact single-line summary.
func (v *View) String() string {
	return fmt.Sprintf("view{p%d r%d knows=%d}", v.Owner, v.Round, v.countKnown())
}

func (v *View) countKnown() int {
	seen := map[core.PID]bool{}
	v.walk(func(sub *View) { seen[sub.Owner] = true })
	return len(seen)
}

// fullInfo is the full-information algorithm: each round it emits its
// current view and assembles the next from what it receives.
type fullInfo struct {
	me     core.PID
	n      int
	cur    *View
	rounds int
}

// FullInfo returns the factory for the full-information protocol, deciding
// (with its final view as the output) after the given number of rounds.
func FullInfo(rounds int) core.Factory {
	return func(me core.PID, n int, input core.Value) core.Algorithm {
		return &fullInfo{
			me: me, n: n, rounds: rounds,
			cur: &View{Owner: me, Round: 0, Input: input, Suspected: core.NewSet(n)},
		}
	}
}

func (a *fullInfo) Emit(r int) core.Message { return a.cur }

func (a *fullInfo) Deliver(r int, msgs map[core.PID]core.Message, suspects core.Set) (core.Value, bool) {
	next := &View{
		Owner:     a.me,
		Round:     r,
		Input:     a.cur.Input,
		Suspected: suspects.Clone(), // suspects is engine-owned scratch
		Received:  make(map[core.PID]*View, len(msgs)),
		Prev:      a.cur,
	}
	for p, m := range msgs {
		next.Received[p] = m.(*View)
	}
	a.cur = next
	if r >= a.rounds {
		return a.cur, true
	}
	return nil, false
}

// Run executes the full-information protocol for rounds rounds under the
// oracle and returns each live process's final view.
func Run(n, rounds int, inputs []core.Value, oracle core.Oracle) (map[core.PID]*View, *core.Result, error) {
	res, err := core.Run(n, inputs, FullInfo(rounds), oracle)
	if err != nil {
		return nil, nil, err
	}
	views := make(map[core.PID]*View, len(res.Outputs))
	for p, v := range res.Outputs {
		views[p] = v.(*View)
	}
	return views, res, nil
}

// History is each process's sequence of end-of-round views, History[p][r-1]
// being p's view at the end of round r.
type History map[core.PID][]*View

// RunHistory is Run plus the per-round view history, which the FIFO
// reconstruction and the write emulation consume.
func RunHistory(n, rounds int, inputs []core.Value, oracle core.Oracle) (History, *core.Result, error) {
	recs := make([][]*View, n)
	factory := func(me core.PID, nn int, input core.Value) core.Algorithm {
		inner := FullInfo(rounds)(me, nn, input).(*fullInfo)
		return &historyAlg{inner: inner, sink: &recs[me]}
	}
	res, err := core.Run(n, inputs, factory, oracle)
	if err != nil {
		return nil, nil, err
	}
	h := make(History, n)
	for i := 0; i < n; i++ {
		h[core.PID(i)] = recs[i]
	}
	return h, res, nil
}

// historyAlg wraps fullInfo, recording the view after every round.
type historyAlg struct {
	inner *fullInfo
	sink  *[]*View
}

func (a *historyAlg) Emit(r int) core.Message { return a.inner.Emit(r) }

func (a *historyAlg) Deliver(r int, msgs map[core.PID]core.Message, suspects core.Set) (core.Value, bool) {
	out, done := a.inner.Deliver(r, msgs, suspects)
	*a.sink = append(*a.sink, a.inner.cur)
	return out, done
}

// KnownByAll returns the processes whose input every one of the given views
// contains — the quantity behind §2 item 4's information-propagation
// argument.
func KnownByAll(n int, views map[core.PID]*View) core.Set {
	common := core.FullSet(n)
	pids := make([]core.PID, 0, len(views))
	for p := range views {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, p := range pids {
		common = common.Intersect(views[p].KnownSet(n))
	}
	return common
}
