package core

import (
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/wal"
)

// This file is the engine half of the crash-recovery substrate: durable
// checkpoints of a lock-step execution, written through internal/wal, and
// Resume, which re-executes a killed run from its log and continues it.
//
// The record stream of a checkpoint log is
//
//	meta                      — once, first record: the n task inputs
//	round, round, …           — one per completed round (the RoundRecord)
//	end                       — exactly once, iff the run finished cleanly
//
// Rounds are the unit of durability because communication-closed rounds make
// state-at-round-r well defined: a record is appended only after every live
// process finished its round-r Deliver, and algorithms are deterministic, so
// re-running rounds 1..r under the journaled plans rebuilds the exact
// per-process state. A resumed run is therefore a replayed run: Resume hands
// the journal to the ordinary engine loop, from round 1.

// Record kinds of the checkpoint log.
const (
	recMeta  uint8 = 1 // JSON []ckInput
	recRound uint8 = 2 // JSON roundRecordJSON
	recEnd   uint8 = 4 // empty payload: the run completed
)

// CheckpointOptions tunes WithCheckpointing.
type CheckpointOptions struct {
	// Sync is the WAL fsync policy for round records.
	Sync wal.SyncMode
}

// WithCheckpointing makes Run journal the execution to a WAL in dir so a
// killed run can be continued with Resume. dir must not already hold a log.
func WithCheckpointing(dir string, co CheckpointOptions) Option {
	return func(o *engineOptions) { o.ckDir, o.ckOpts = dir, co }
}

// WithHaltAfterRound stops the engine with a *HaltError once round r has
// completed (and been journaled, under WithCheckpointing), without writing
// the end-of-log marker. It deterministically simulates a kill at a round
// boundary: the log looks exactly as if the process died there, and Resume
// continues from round r+1. A resumed run halts at the end of its replayed
// journal at the earliest, and not there if that log's run had completed.
func WithHaltAfterRound(r int) Option {
	return func(o *engineOptions) { o.haltAfter = r }
}

// halts reports whether WithHaltAfterRound stops the run after round r.
func (e *execution) halts(r int) bool {
	return r >= max(e.o.haltAfter, e.replay) && (r > e.replay || !allDecided(e.active, e.res.DecidedAt))
}

// HaltError reports a run stopped by WithHaltAfterRound. The execution is
// not failed — it is suspended, and Resume(Dir, …) continues it.
type HaltError struct {
	Round int
	Dir   string
}

// Error implements error.
func (e *HaltError) Error() string {
	return fmt.Sprintf("core: halted after round %d (resumable from %s)", e.Round, e.Dir)
}

// DivergenceError reports that a resumed oracle did not reproduce the
// journaled prefix: the continuation would not be the same execution.
type DivergenceError struct {
	Round  int
	Reason string
}

// Error implements error.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("core: resume divergence at round %d: %s", e.Round, e.Reason)
}

// ckInput is one task input in the meta record, a JSON array of the n
// inputs. JSON alone would read a number back as float64, so each input
// carries the name of its Go type, one of inputTypes.
type ckInput struct {
	Type  string          `json:"type"`
	Value json.RawMessage `json:"value"`
}

var inputTypes = func() map[string]reflect.Type {
	m := make(map[string]reflect.Type)
	for _, v := range []Value{0, int64(0), 0.0, "", false, []int(nil)} {
		m[reflect.TypeOf(v).String()] = reflect.TypeOf(v)
	}
	return m
}()

func encodeMeta(inputs []Value) ([]byte, error) {
	meta := make([]ckInput, len(inputs))
	for i, v := range inputs {
		t := reflect.TypeOf(v)
		if t == nil || inputTypes[t.String()] != t {
			return nil, fmt.Errorf("core: checkpoint: input %d has unsupported type %T", i, v)
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("core: encode checkpoint input %d: %w", i, err)
		}
		meta[i] = ckInput{Type: t.String(), Value: b}
	}
	return json.Marshal(meta)
}

func decodeMeta(b []byte) ([]Value, error) {
	var meta []ckInput
	if err := json.Unmarshal(b, &meta); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint meta: %w", err)
	}
	if len(meta) == 0 {
		return nil, fmt.Errorf("core: corrupt checkpoint meta: no inputs")
	}
	inputs := make([]Value, len(meta))
	for i, in := range meta {
		t, ok := inputTypes[in.Type]
		if !ok {
			return nil, fmt.Errorf("core: checkpoint input %d has unknown type %q", i, in.Type)
		}
		v := reflect.New(t)
		if err := json.Unmarshal(in.Value, v.Interface()); err != nil {
			return nil, fmt.Errorf("core: decode checkpoint input %d: %w", i, err)
		}
		inputs[i] = v.Elem().Interface()
	}
	return inputs, nil
}

// checkpointer journals one execution. ended marks a resumed log that
// already holds its end marker.
type checkpointer struct {
	log   *wal.Log
	ended bool
}

func newCheckpointer(dir string, co CheckpointOptions, inputs []Value) (*checkpointer, error) {
	meta, err := encodeMeta(inputs)
	if err != nil {
		return nil, err
	}
	l, err := wal.Create(dir, wal.Options{Sync: co.Sync})
	if err != nil {
		return nil, err
	}
	if _, err := l.Append(recMeta, meta); err != nil {
		l.Close()
		return nil, err
	}
	if err := l.Sync(); err != nil {
		l.Close()
		return nil, err
	}
	return &checkpointer{log: l}, nil
}

// endOfRound journals a completed round.
func (ck *checkpointer) endOfRound(rec *RoundRecord) error {
	b, err := json.Marshal(roundRecordJSON(*rec))
	if err != nil {
		return fmt.Errorf("core: encode round record: %w", err)
	}
	_, err = ck.log.Append(recRound, b)
	return err
}

func (ck *checkpointer) writeEnd() error {
	if ck.ended {
		return nil
	}
	if _, err := ck.log.Append(recEnd, nil); err != nil {
		return err
	}
	return ck.log.Sync()
}

// Resume re-executes the run journaled in dir and continues it to
// completion. The factory and oracle must be the ones the original run used
// (same determinism, same seed): Resume is Run over the journal, from round
// 1 through fresh algorithm instances, and every journaled round must be
// re-planned exactly — a *DivergenceError, returned before anything is
// appended, rather than a silently forked history. From the round after the
// journal on, the continuation journals to the same log, so Resume is
// itself killable and resumable; a log whose run completed resumes to the
// same final Result. An observer sees one "recovery.resume" event, then
// every round's engine hooks, the replayed ones included.
func Resume(dir string, factory Factory, oracle Oracle, opts ...Option) (res *Result, err error) {
	o := foldOptions(opts)
	if o.ckDir != "" && o.ckDir != dir {
		return nil, fmt.Errorf("core: resume dir %s conflicts with WithCheckpointing dir %s", dir, o.ckDir)
	}
	o.ckDir = dir

	l, recs, rep, err := wal.Open(dir, wal.Options{Sync: o.ckOpts.Sync})
	if err != nil {
		return nil, err
	}
	inputs, rounds, ended, err := decodeLog(recs)
	if err != nil {
		l.Close()
		return nil, err
	}

	jo := &journalOracle{Oracle: oracle, rounds: rounds}
	var e execution
	e.begin(len(inputs), inputs, factory, jo, o)
	defer func() { e.end(res, err) }()
	e.ck = &checkpointer{log: l, ended: ended}
	e.replay = len(rounds)
	if e.ob != nil {
		e.ob.Event("recovery.resume", len(rounds), -1, map[string]any{
			"replayed_rounds": len(rounds),
			"truncated_bytes": rep.TruncatedBytes,
		})
	}
	res, err = e.run()
	if jo.err != nil {
		return nil, jo.err
	}
	return res, err
}

// journalOracle is the oracle of a resumed run. For a journaled round it
// hands the engine the live oracle's plan only if that plan reproduces the
// round's record; otherwise it keeps a *DivergenceError and hands back an
// empty plan, which the engine rejects before any process emits. Past the
// journal it is the live oracle.
type journalOracle struct {
	Oracle
	rounds []RoundRecord
	err    *DivergenceError
}

// Plan implements Oracle.
func (jo *journalOracle) Plan(r int, active Set) RoundPlan {
	plan := jo.Oracle.Plan(r, active)
	if r > len(jo.rounds) || validatePlan(active.n, r, active, &plan) != nil {
		return plan // live, or invalid: the engine reports it
	}
	if jo.err = diverges(&jo.rounds[r-1], &plan, active); jo.err != nil {
		return RoundPlan{}
	}
	return plan
}

// diverges compares a validated plan with the journaled record of its round.
func diverges(rec *RoundRecord, plan *RoundPlan, active Set) *DivergenceError {
	now := active.Diff(plan.Crashes)
	if !now.Equal(rec.Active) {
		return &DivergenceError{Round: rec.R, Reason: fmt.Sprintf("journal has active=%s, oracle re-planned %s", rec.Active, now)}
	}
	for _, p := range now.Members() {
		if !plan.Suspects[p].Equal(rec.Suspects[p]) {
			return &DivergenceError{Round: rec.R, Reason: fmt.Sprintf("p%d journal D=%s, oracle D=%s", p, rec.Suspects[p], plan.Suspects[p])}
		}
		if got := plan.deliverSet(p, now); !got.Equal(rec.Deliver[p]) {
			return &DivergenceError{Round: rec.R, Reason: fmt.Sprintf("p%d journal S=%s, oracle S=%s", p, rec.Deliver[p], got)}
		}
	}
	return nil
}

// decodeLog parses a checkpoint log's records.
func decodeLog(recs []wal.Record) (inputs []Value, rounds []RoundRecord, ended bool, err error) {
	if len(recs) == 0 {
		return nil, nil, false, fmt.Errorf("core: nothing to resume: empty checkpoint log")
	}
	if recs[0].Kind != recMeta {
		return nil, nil, false, fmt.Errorf("core: checkpoint log does not start with a meta record (kind %d)", recs[0].Kind)
	}
	if inputs, err = decodeMeta(recs[0].Payload); err != nil {
		return nil, nil, false, err
	}
	n := len(inputs)
	for _, rec := range recs[1:] {
		switch rec.Kind {
		case recRound:
			var rj roundRecordJSON
			if err := json.Unmarshal(rec.Payload, &rj); err != nil {
				return nil, nil, false, fmt.Errorf("core: decode round record: %w", err)
			}
			if rj.R != len(rounds)+1 {
				return nil, nil, false, fmt.Errorf("core: checkpoint log has round %d where %d expected", rj.R, len(rounds)+1)
			}
			if len(rj.Suspects) != n || len(rj.Deliver) != n {
				return nil, nil, false, fmt.Errorf("core: round %d record sized for %d processes, want %d", rj.R, len(rj.Suspects), n)
			}
			rounds = append(rounds, RoundRecord(rj))
		case recEnd:
			ended = true
		case recMeta:
			return nil, nil, false, fmt.Errorf("core: duplicate meta record at seq %d", rec.Seq)
		default:
			return nil, nil, false, fmt.Errorf("core: unknown checkpoint record kind %d at seq %d", rec.Kind, rec.Seq)
		}
	}
	return inputs, rounds, ended, nil
}
