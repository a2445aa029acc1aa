package rrfd

import (
	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/hoalg"
	"repro/internal/mc"
)

// ---- Systematic model checking (internal/mc) ----
//
// The model checker explores every adversary schedule of a small system:
// a Chooser-driven depth-first search over any deterministic run
// function, with state-hash pruning, symmetry and sleep-set reduction,
// bounded-depth random frontier sampling, first-class property checking,
// and shrinking to a minimal replayable counterexample. See DESIGN §12.

type (
	// MCOptions tunes an exploration (budget, depth bound, reductions,
	// workers, observer).
	MCOptions = mc.Options

	// MCCounterexample is a shrunk, replayable violating schedule.
	MCCounterexample = mc.Counterexample

	// MCCtx is the choice context a run function draws decisions from.
	MCCtx = mc.Ctx

	// MCRunSpec binds an algorithm, an adversary and properties into an
	// explorable run function (via MCCheckRun).
	MCRunSpec = mc.RunSpec

	// MCProperty is a named predicate over a finished execution.
	MCProperty = mc.Property

	// AdversaryEnum lists every round plan a model allows from a state.
	AdversaryEnum = adversary.Enum

	// EmptyFamilyError is the error of a run or an exploration whose model
	// lists no plan: the model is unsatisfiable from that state.
	EmptyFamilyError = hoalg.EmptyFamilyError
)

var (
	// MCExplore runs the depth-first exploration of a run function.
	MCExplore = mc.Explore

	// MCReplay re-executes one recorded schedule.
	MCReplay = mc.Replay

	// MCCheckRun compiles an MCRunSpec into an explorable run function.
	MCCheckRun = mc.CheckRun

	// MCValidity and MCKAgreement are the stock properties.
	MCValidity   = mc.Validity
	MCKAgreement = mc.KAgreement

	// FormatChoices and ParseChoices round-trip a counterexample through
	// its portable replay string ("c1:2.0.1").
	FormatChoices = mc.FormatChoices
	ParseChoices  = mc.ParseChoices

	// EnumeratedAdversary drives an enumeration as an Oracle for one
	// explored schedule.
	EnumeratedAdversary = adversary.Enumerated

	// EnumPerRoundBudget, EnumKSet, EnumSendOmission and EnumSyncCrash
	// enumerate the paper's model families (eqs. (3), k-set, (1),
	// (1)+(2)) for exhaustive exploration over small n.
	EnumPerRoundBudget = adversary.EnumPerRoundBudget
	EnumKSet           = adversary.EnumKSet
	EnumSendOmission   = adversary.EnumSendOmission
	EnumSyncCrash      = adversary.EnumSyncCrash

	// QuorumKSet is the quorum-gated k-set decision rule; QuorumKSetBuggy
	// is its wrong-quorum-size variant the checker demonstrably catches.
	QuorumKSet      = agreement.QuorumKSet
	QuorumKSetBuggy = agreement.QuorumKSetBuggy
)
