package rrfd

import (
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/obs"
)

// Observability layer, re-exported from internal/obs (see the package doc
// there for the observer contract and the JSONL event schema).
type (
	// Observer receives the events of an execution through its one
	// method, Observe(Event).
	Observer = obs.Observer

	// Event is one observation: an engine kind (rounds, phases,
	// suspicions, deliveries, decisions) or a substrate's named event.
	// Its Kind says which fields are set.
	Event = obs.Event

	// Metrics is a concurrency-safe Observer aggregating counters and
	// histograms with a JSON-serializable Snapshot.
	Metrics = obs.Metrics

	// MetricsSnapshot is a point-in-time copy of a Metrics.
	MetricsSnapshot = obs.Snapshot

	// EventLog is an Observer streaming every event as JSONL.
	EventLog = obs.EventLog
)

var (
	// NewEventLog returns an EventLog writing JSONL to a writer.
	NewEventLog = obs.NewEventLog

	// MultiObserver fans events out to several observers.
	MultiObserver = obs.Multi

	// WithObserver attaches an observer to one engine execution.
	WithObserver = core.WithObserver

	// SetDefaultObserver installs a process-wide fallback observer for
	// every Run without an explicit WithObserver — how cmd/experiments
	// meters whole experiment sweeps without threading options through.
	SetDefaultObserver = core.SetDefaultObserver

	// OneRoundKSetObserved is OneRoundKSet reporting each process's
	// chosen identifier as an "agreement.kset_choose" event.
	OneRoundKSetObserved = agreement.OneRoundKSetObserved
)
