package rrfd

import (
	"repro/internal/chaos"
)

// ChaosConfig shapes a randomized fault-injection campaign; see
// internal/chaos.Config for field semantics.
type ChaosConfig = chaos.Config

// ChaosRun executes a chaos campaign: many seeded executions of k-set
// agreement over reliable links on a randomly faulty substrate, each
// checked against validity, k-agreement, and trace-predicate conformance.
var ChaosRun = chaos.Run
