package adversary

import (
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/mc"
)

// This file wires adversary enumeration into the model checker: instead of
// sampling one hostile plan per round from a seed, a hoalg.Enum lists *every*
// plan the model predicate allows in the current state, and Enumerated
// turns the list into a core.Oracle that lets mc explore each alternative.
// Shimi–Hurault–Queinnec's round-based characterization (PAPERS.md) is
// what makes this tractable: the predicate families are finitely
// enumerable per round.
//
// The enumerators themselves are compiled from hoalg model expressions
// (Expr.CompileEnum: one source of truth for checker, enumerator and chaos
// plan); planListGolden in enum_test.go holds them to the plan lists of the
// hand-written generators they replaced.

// Enumerated drives a hoalg.Enum as a core.Oracle for one explored schedule: a
// hoalg.Walk whose picker is ctx, with options labeled by the family's
// plan hashes so mc's symmetry reduction collapses duplicate plans. The
// walk implements mc.Fingerprinter over its suspicion history, so
// RunSpec.Mark-based pruning can include the adversary's state. A state the model admits no plan from
// fails the exploration with the walk's *hoalg.EmptyFamilyError
// (mc.Ctx.Fail).
func Enumerated(ctx *mc.Ctx, n int, enum hoalg.Enum) core.Oracle {
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

// EnumSyncCrash enumerates eqs. (1)+(2) — the synchronous model with at
// most f crash faults — for n ≤ 4 processes: hoalg.SyncCrash(f) compiled by
// CompileEnum. A process suspected by anyone in round r crashed mid-send: it
// really crashes at round r+1 (so propagation ⋃D(·,r) ⊆ D(i,r+1) holds via
// the engine's crashed-⊆-D rule), and in round r each live process
// independently either received its last message or not.
func EnumSyncCrash(n, f int) (hoalg.Enum, error) {
	return hoalg.SyncCrash(f).CompileEnum(n)
}
