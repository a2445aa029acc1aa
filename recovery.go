package rrfd

import (
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/wal"
)

// This file re-exports the crash-recovery substrate: the write-ahead log
// (internal/wal), engine checkpointing and resume (internal/core), the
// crash-recovery round protocol with durable journals (internal/recovery),
// and the crash-and-recover chaos campaign (internal/chaos).

// SyncMode selects the fsync policy for appends.
type SyncMode = wal.SyncMode

// Fsync policies.
const (
	// SyncNever never fsyncs on append: survives process crashes, not
	// power loss.
	SyncNever = wal.SyncNever

	// SyncAlways fsyncs after every append.
	SyncAlways = wal.SyncAlways
)

// Engine checkpointing: durable journals of core.Run executions.
type (
	// CheckpointOptions tunes WithCheckpointing (the fsync policy).
	CheckpointOptions = core.CheckpointOptions

	// HaltError reports a run suspended by WithHaltAfterRound; Resume
	// continues it.
	HaltError = core.HaltError
)

var (
	// WithCheckpointing makes Run journal the execution to a WAL so a
	// killed run can be continued with Resume.
	WithCheckpointing = core.WithCheckpointing

	// WithHaltAfterRound deterministically simulates a kill at a round
	// boundary.
	WithHaltAfterRound = core.WithHaltAfterRound

	// Resume re-executes a journaled execution and continues it to
	// completion, verifying the oracle re-plans every logged round.
	Resume = core.Resume
)

// Crash-recovery round protocol: processes journal to durable logs, crash,
// restart under a supervisor, and re-enter the round structure via
// suspicion.

// RecoveryConfig shapes a crash-recovery execution.
type RecoveryConfig = recovery.Config

var (
	// RecoveryRun executes the crash-recovery round protocol.
	RecoveryRun = recovery.RunRounds

	// RecoveryAudit checks an outcome against the model predicate, the
	// per-round budget, validity, (f+1)-agreement, and the log-before-act
	// durability rule.
	RecoveryAudit = recovery.Audit
)

// RecoverChaosConfig shapes a crash-and-recover chaos campaign.
type RecoverChaosConfig = chaos.RecoverConfig

// RecoverChaosRun executes a crash-and-recover campaign: many seeded
// executions, each with at least one crash (and usually a supervised
// restart), each audited for safety.
var RecoverChaosRun = chaos.RunRecover
