package rrfd

import (
	"repro/internal/core"
)

// Core model types, re-exported from the engine.
type (
	// PID identifies a process (0..n-1).
	PID = core.PID

	// Value is an algorithm input or decision output.
	Value = core.Value

	// Message is what a process emits in a round.
	Message = core.Message

	// Set is a set of processes over a fixed universe.
	Set = core.Set

	// Algorithm is one process's emit/receive round algorithm.
	Algorithm = core.Algorithm

	// Factory builds the per-process Algorithm.
	Factory = core.Factory

	// Oracle is the round-by-round fault detector, driven as an
	// adversary.
	Oracle = core.Oracle

	// OracleFunc adapts a function to Oracle.
	OracleFunc = core.OracleFunc

	// RoundPlan is one round of adversary choices.
	RoundPlan = core.RoundPlan

	// Trace records an execution's suspect sets for validation.
	Trace = core.Trace

	// Result is the outcome of an execution.
	Result = core.Result

	// Option configures Run.
	Option = core.Option
)

// Engine entry points.
var (
	// Run executes an algorithm under an adversary in lock-step rounds.
	Run = core.Run

	// CollectTrace records an adversary's behaviour without an algorithm.
	CollectTrace = core.CollectTrace

	// TraceOracle replays a recorded trace as an adversary — the bridge
	// from exhaustive trace enumeration to exhaustive algorithm
	// verification.
	TraceOracle = core.TraceOracle

	// WithMaxRounds bounds an execution's length.
	WithMaxRounds = core.WithMaxRounds

	// WithoutTrace disables trace recording.
	WithoutTrace = core.WithoutTrace
)

// Set constructors.
var (
	// NewSet returns an empty set over a universe of n processes.
	NewSet = core.NewSet

	// SetOf returns the set with the given members.
	SetOf = core.SetOf

	// FullSet returns the set of all n processes.
	FullSet = core.FullSet

	// UnionAll returns the union of the given sets.
	UnionAll = core.UnionAll

	// IntersectAll returns the intersection of the given sets.
	IntersectAll = core.IntersectAll
)
