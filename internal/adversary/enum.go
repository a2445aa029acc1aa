package adversary

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/mc"
)

// This file wires adversary enumeration into the model checker: instead of
// sampling one hostile plan per round from a seed, an Enum lists *every*
// plan the model predicate allows in the current state, and Enumerated
// turns the list into a core.Oracle that lets mc explore each alternative.
// Shimi–Hurault–Queinnec's round-based characterization (PAPERS.md) is
// what makes this tractable: the predicate families are finitely
// enumerable per round.
//
// The enumerators themselves are compiled from hoalg model expressions
// (one source of truth for checker, enumerator and chaos plan); the four
// constructors below keep their historical signatures as thin wrappers and
// are held to byte-identical plan lists by the reference implementations
// in enum_reference_test.go.

// EnumState is what an Enum may condition on; see hoalg.EnumState.
type EnumState = hoalg.EnumState

// Enum lists every round plan the model allows from the given state; see
// hoalg.Enum.
type Enum = hoalg.Enum

// Enumerated drives an Enum as a core.Oracle for one explored schedule:
// each round it enumerates the allowed plans and asks ctx to pick one,
// labeling options with a plan hash so mc's symmetry reduction collapses
// duplicate plans. It tracks the suspicion history EnumState exposes and
// implements mc.Fingerprinter over it, so RunSpec.Mark-based pruning can
// include the adversary's state.
//
// The state handed to enum aliases the oracle's own history (nothing is
// cloned per round) and the chosen plan is enum's own: a compiled Enum
// memoises its lists (hoalg.Enum), so one enum shared by every schedule of
// an exploration expands each state once. A state the model admits no plan
// from fails the exploration with an *EmptyFamilyError (mc.Ctx.Fail).
func Enumerated(ctx *mc.Ctx, n int, enum Enum) core.Oracle {
	return &enumerated{ctx: ctx, n: n, enum: enum,
		suspected: core.NewSet(n), prevUnion: core.NewSet(n)}
}

type enumerated struct {
	ctx       *mc.Ctx
	n         int
	enum      Enum
	suspected core.Set
	prevUnion core.Set
	unions    []core.Set
}

// EmptyFamilyError reports that an enumerator listed no plan at all: the
// model is unsatisfiable from State, so there is no schedule to explore
// past Round. It reaches the caller as mc.Explore's (or mc.Replay's) error.
type EmptyFamilyError struct {
	Round int
	State EnumState
}

// Error implements error.
func (e *EmptyFamilyError) Error() string {
	return fmt.Sprintf("adversary: the model admits no plan in round %d (active=%s suspected=%s prev-round=%s)",
		e.Round, e.State.Active, e.State.Suspected, e.State.PrevUnion)
}

func (e *enumerated) Plan(r int, active core.Set) core.RoundPlan {
	st := EnumState{R: r, Active: active, Suspected: e.suspected,
		PrevUnion: e.prevUnion, Unions: e.unions}
	plans := e.enum(st)
	if len(plans) == 0 {
		// The error outlives the round: detach it from the engine's live
		// set and from the history this oracle updates in place.
		st.Active, st.Suspected = active.Clone(), e.suspected.Clone()
		e.ctx.Fail(&EmptyFamilyError{Round: r, State: st})
		// No plan to return: the engine rejects the zero plan and the
		// schedule ends here.
		return core.RoundPlan{}
	}
	labels := make([]uint64, len(plans))
	for i := range plans {
		labels[i] = planHash(&plans[i])
	}
	plan := plans[e.ctx.ChooseLabeled(labels)]

	u := core.NewSet(e.n)
	for _, d := range plan.Suspects {
		u.UnionInto(d)
	}
	e.prevUnion = u
	e.suspected.UnionInto(u)
	e.unions = append(e.unions, u)
	return plan
}

// Fingerprint implements mc.Fingerprinter over the state future plans
// depend on. It covers the cumulative and previous-round unions — enough
// for the window-free model families explored with Mark-based pruning
// (windowed "eventually" expressions are path properties and must be
// explored with Mark off anyway).
func (e *enumerated) Fingerprint() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	e.suspected.ForEach(func(p core.PID) { mix(uint64(p) + 1) })
	mix(0xabcd)
	e.prevUnion.ForEach(func(p core.PID) { mix(uint64(p) + 1) })
	return h
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

// enumGuard bounds the states a per-round enumeration may generate:
// exhaustive exploration is only tractable for the small systems the
// paper's separations need.
func enumGuard(kind string, n, max int) error {
	if n < 1 || n > max {
		return fmt.Errorf("adversary: %s enumeration supports 1 <= n <= %d, got n=%d", kind, max, n)
	}
	return nil
}

// compiled lowers a model expression to its enumerator, panicking on
// compile errors: the four wrapped expressions below are enumerable by
// construction once the n guard has passed.
func compiled(e *hoalg.Expr, n int) Enum {
	en, err := e.CompileEnum(n)
	if err != nil {
		panic(fmt.Sprintf("adversary: %v", err))
	}
	return en
}

// EnumPerRoundBudget enumerates eq. (3) — the asynchronous
// message-passing model with at most f crash failures: every process
// independently misses up to f round messages, |D(i,r)| <= f, nobody
// really crashes. n is capped at 4 to keep the per-round family small.
func EnumPerRoundBudget(n, f int) (Enum, error) {
	if err := enumGuard("per-round-budget", n, 4); err != nil {
		return nil, err
	}
	return compiled(hoalg.PerRound(f), n), nil
}

// EnumKSet enumerates the k-set detector family: per round, the
// suspicion uncertainty is bounded by |⋃_i D(i,r) \ ⋂_i D(i,r)| < k.
// n is capped at 3: the family is a filtered n-fold product of subsets.
func EnumKSet(n, k int) (Enum, error) {
	if err := enumGuard("k-set", n, 3); err != nil {
		return nil, err
	}
	return compiled(hoalg.KSetEq3(k), n), nil
}

// EnumSendOmission enumerates eq. (1) — the synchronous model with at
// most f send-omission faults: self-trusting suspicions whose cumulative
// union stays within f distinct processes. n is capped at 4.
func EnumSendOmission(n, f int) (Enum, error) {
	if err := enumGuard("send-omission", n, 4); err != nil {
		return nil, err
	}
	return compiled(hoalg.SendOmission(f), n), nil
}

// EnumSyncCrash enumerates eqs. (1)+(2) — the synchronous model with at
// most f crash faults. A process suspected by anyone in round r crashed
// mid-send: it really crashes at round r+1 (so propagation ⋃D(·,r) ⊆
// D(i,r+1) holds via the engine's crashed-⊆-D rule), and in round r each
// live process independently either received its last message or not.
// n is capped at 4.
func EnumSyncCrash(n, f int) (Enum, error) {
	if err := enumGuard("sync-crash", n, 4); err != nil {
		return nil, err
	}
	return compiled(hoalg.SyncCrash(f), n), nil
}
