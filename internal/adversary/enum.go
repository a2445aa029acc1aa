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
// are held to byte-identical plan lists by planListGolden in enum_test.go.

// EnumState is what an Enum may condition on; see hoalg.EnumState.
type EnumState = hoalg.EnumState

// Enum lists every round plan the model allows from the given state; see
// hoalg.Enum.
type Enum = hoalg.Enum

// Enumerated drives an Enum as a core.Oracle for one explored schedule: a
// hoalg.Walk whose picker is ctx, with options labeled by the family's
// plan hashes so mc's symmetry reduction collapses duplicate plans. The
// walk implements mc.Fingerprinter over its suspicion history, so
// RunSpec.Mark-based pruning can include the adversary's state. A state the model admits no plan from
// fails the exploration with the walk's *hoalg.EmptyFamilyError
// (mc.Ctx.Fail).
func Enumerated(ctx *mc.Ctx, n int, enum Enum) core.Oracle {
	return &explored{Walk: hoalg.NewWalk(n, enum), ctx: ctx}
}

type explored struct {
	hoalg.Walk
	ctx *mc.Ctx
}

func (e *explored) Plan(r int, active core.Set) core.RoundPlan {
	fam := e.Plans(r, active)
	if len(fam.Plans) == 0 {
		e.ctx.Fail(e.Err())
		return core.RoundPlan{}
	}
	return e.Follow(fam.Plans[e.ctx.ChooseLabeled(fam.Labels)])
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
