package core

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"

	"repro/internal/wal"
)

// This file is the engine half of the crash-recovery substrate: durable
// checkpoints of a lock-step execution, written through internal/wal, and
// Resume, which reconstructs a killed run from its log and continues it.
//
// The record stream of a checkpoint log is
//
//	meta                      — once, first record: n and the task inputs
//	round, round, …           — one per completed round (the RoundRecord)
//	snapshot                  — every CheckpointOptions.Every rounds:
//	                            algorithm states + decisions so far
//	end                       — exactly once, iff the run finished cleanly
//
// Rounds are the unit of durability because communication-closed rounds make
// state-at-round-r well defined: a record is appended only after every live
// process finished its round-r Deliver, so replaying records r' ≤ r in order
// regenerates the exact per-process state (algorithms are deterministic).
// Snapshots are an optimization that lets Resume skip the replay prefix when
// every algorithm implements Snapshotter; correctness never depends on them.

// Record kinds of the checkpoint log.
const (
	recMeta  uint8 = 1 // gob ckMeta
	recRound uint8 = 2 // JSON roundRecordJSON
	recSnap  uint8 = 3 // gob ckSnapshot
	recEnd   uint8 = 4 // empty payload: the run completed
)

// Snapshotter is implemented by algorithms whose state can be captured and
// restored, letting Resume start from the latest snapshot instead of
// replaying every logged round. Snapshot/Restore must round-trip exactly:
// a restored algorithm must behave identically to the original from the
// next round on.
type Snapshotter interface {
	Snapshot() ([]byte, error)
	Restore(snapshot []byte) error
}

// CheckpointOptions tunes WithCheckpointing.
type CheckpointOptions struct {
	// Every is the snapshot interval in rounds; 0 logs rounds without ever
	// snapshotting (Resume then replays from round 1).
	Every int

	// Sync is the WAL fsync policy for round records. Snapshots are always
	// fsynced — they are the durability points.
	Sync wal.SyncMode
}

func (co CheckpointOptions) walOptions() wal.Options {
	return wal.Options{Sync: co.Sync}
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
// picks up from round r+1.
func WithHaltAfterRound(r int) Option {
	return func(o *engineOptions) { o.haltAfter = r }
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

// ckMeta is the first record of every checkpoint log.
type ckMeta struct {
	N      int
	Inputs []Value
}

// ckSnapshot captures everything replay would have regenerated up to and
// including round R.
type ckSnapshot struct {
	R         int
	Outputs   map[PID]Value
	DecidedAt map[PID]int
	States    [][]byte
}

func init() {
	// Decision and input values travel through gob as interfaces; register
	// the concrete types the repo's algorithms use.
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
	gob.Register([]int(nil))
}

// checkpointer journals one execution.
type checkpointer struct {
	log   *wal.Log
	every int
}

func newCheckpointer(dir string, co CheckpointOptions, n int, inputs []Value) (*checkpointer, error) {
	l, err := wal.Create(dir, co.walOptions())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ckMeta{N: n, Inputs: inputs}); err != nil {
		l.Close()
		return nil, fmt.Errorf("core: encode checkpoint meta: %w", err)
	}
	if _, err := l.Append(recMeta, buf.Bytes()); err != nil {
		l.Close()
		return nil, err
	}
	if err := l.Sync(); err != nil {
		l.Close()
		return nil, err
	}
	return &checkpointer{log: l, every: co.Every}, nil
}

// endOfRound journals a completed round and, on the snapshot cadence, the
// full execution state.
func (ck *checkpointer) endOfRound(e *execution, rec *RoundRecord) error {
	b, err := json.Marshal(roundRecordJSON{
		R:        rec.R,
		Suspects: rec.Suspects,
		Deliver:  rec.Deliver,
		Active:   rec.Active,
		Crashed:  rec.Crashed,
	})
	if err != nil {
		return fmt.Errorf("core: encode round record: %w", err)
	}
	if _, err := ck.log.Append(recRound, b); err != nil {
		return err
	}
	if ck.every <= 0 || rec.R%ck.every != 0 {
		return nil
	}
	states, ok := snapshotStates(e.procs)
	if !ok {
		return nil // some algorithm can't snapshot: replay-only log
	}
	start := e.now()
	snap := ckSnapshot{
		R:         rec.R,
		Outputs:   make(map[PID]Value, len(e.res.Outputs)),
		DecidedAt: make(map[PID]int, len(e.res.DecidedAt)),
		States:    states,
	}
	for p, v := range e.res.Outputs {
		snap.Outputs[p] = v
	}
	for p, r := range e.res.DecidedAt {
		snap.DecidedAt[p] = r
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return fmt.Errorf("core: encode snapshot: %w", err)
	}
	if _, err := ck.log.Append(recSnap, buf.Bytes()); err != nil {
		return err
	}
	if err := ck.log.Sync(); err != nil {
		return err
	}
	if e.ob != nil {
		elapsed := e.now().Sub(start)
		e.ob.Event("recovery.checkpoint", rec.R, -1, map[string]any{
			"bytes": buf.Len(),
			"nanos": elapsed.Nanoseconds(),
		})
	}
	return nil
}

func (ck *checkpointer) writeEnd() error {
	if _, err := ck.log.Append(recEnd, nil); err != nil {
		return err
	}
	return ck.log.Sync()
}

func (ck *checkpointer) close() error { return ck.log.Close() }

// snapshotStates captures every algorithm's state, or reports that at least
// one algorithm does not support snapshotting.
func snapshotStates(procs []Algorithm) ([][]byte, bool) {
	states := make([][]byte, len(procs))
	for i, a := range procs {
		s, ok := a.(Snapshotter)
		if !ok {
			return nil, false
		}
		b, err := s.Snapshot()
		if err != nil {
			return nil, false
		}
		states[i] = b
	}
	return states, true
}

// Resume reconstructs the execution journaled in dir and continues it to
// completion. The factory and oracle must be the ones the original run used
// (same determinism, same seed): Resume replays the journaled rounds through
// fresh algorithm instances (or restores the latest snapshot when every
// algorithm implements Snapshotter), fast-forwards the oracle by re-planning
// every journaled round, and verifies the oracle reproduces the journal —
// returning a *DivergenceError if not, rather than silently forking history.
//
// A log whose run already completed resumes to the same final Result. The
// continuation keeps journaling to the same log, so Resume is itself
// killable and resumable.
func Resume(dir string, factory Factory, oracle Oracle, opts ...Option) (res *Result, err error) {
	o := foldOptions(opts)
	if o.ckDir != "" && o.ckDir != dir {
		return nil, fmt.Errorf("core: resume dir %s conflicts with WithCheckpointing dir %s", dir, o.ckDir)
	}
	o.ckDir = dir

	l, recs, rep, err := wal.Open(dir, o.ckOpts.walOptions())
	if err != nil {
		return nil, err
	}
	meta, rounds, snap, ended, err := decodeLog(recs)
	if err != nil {
		l.Close()
		return nil, err
	}
	n := meta.N

	var e execution
	e.begin(n, meta.Inputs, factory, oracle, o)
	defer func() { e.end(res, err) }()
	e.ck = &checkpointer{log: l, every: o.ckOpts.Every}
	procs, rebuilt, ob := e.procs, e.res, e.ob

	// Restore from the latest snapshot when possible; otherwise replay the
	// whole journaled prefix through the fresh algorithms.
	replayFrom := 1
	if snap != nil {
		restored, rerr := restoreStates(procs, snap)
		if rerr != nil {
			l.Close()
			return nil, rerr
		}
		if restored {
			replayFrom = snap.R + 1
			for p, v := range snap.Outputs {
				rebuilt.Outputs[p] = v
			}
			for p, r := range snap.DecidedAt {
				rebuilt.DecidedAt[p] = r
			}
		}
	}
	for _, rr := range rounds {
		if rr.R < replayFrom {
			continue
		}
		msgs := make([]Message, n)
		rr.Active.ForEach(func(p PID) { msgs[p] = procs[p].Emit(rr.R) })
		rr.Active.ForEach(func(p PID) {
			in := make(map[PID]Message, rr.Deliver[p].Count())
			rr.Deliver[p].ForEach(func(q PID) { in[q] = msgs[q] })
			out, decided := procs[p].Deliver(rr.R, in, rr.Suspects[p].Clone())
			if decided {
				if _, done := rebuilt.DecidedAt[p]; !done {
					rebuilt.Outputs[p] = out
					rebuilt.DecidedAt[p] = rr.R
				}
			}
		})
	}

	// Fast-forward the oracle over every journaled round — including ones
	// the snapshot let the algorithms skip — verifying it re-plans history
	// exactly. Stateful (seeded) oracles end up positioned for round R+1.
	activeBefore := FullSet(n)
	for i := range rounds {
		rr := &rounds[i]
		plan := oracle.Plan(rr.R, activeBefore)
		if err := validatePlan(n, rr.R, activeBefore, &plan); err != nil {
			l.Close()
			return nil, err
		}
		nowActive := activeBefore.Diff(plan.Crashes)
		if !nowActive.Equal(rr.Active) {
			l.Close()
			return nil, &DivergenceError{Round: rr.R, Reason: fmt.Sprintf("journal has active=%s, oracle re-planned %s", rr.Active, nowActive)}
		}
		var derr error
		nowActive.ForEach(func(p PID) {
			if derr != nil {
				return
			}
			if !plan.Suspects[p].Equal(rr.Suspects[p]) {
				derr = &DivergenceError{Round: rr.R, Reason: fmt.Sprintf("p%d journal D=%s, oracle D=%s", p, rr.Suspects[p], plan.Suspects[p])}
				return
			}
			if got := plan.deliverSet(p, nowActive); !got.Equal(rr.Deliver[p]) {
				derr = &DivergenceError{Round: rr.R, Reason: fmt.Sprintf("p%d journal S=%s, oracle S=%s", p, rr.Deliver[p], got)}
			}
		})
		if derr != nil {
			l.Close()
			return nil, derr
		}
		activeBefore = nowActive
	}

	rebuilt.Rounds = len(rounds)
	rebuilt.Crashed = FullSet(n).Diff(activeBefore)
	if o.trace {
		for i := range rounds {
			rebuilt.Trace.Append(rounds[i])
		}
	}
	if ob != nil {
		fromSnap := 0
		if replayFrom > 1 {
			fromSnap = replayFrom - 1
		}
		ob.Event("recovery.resume", len(rounds), -1, map[string]any{
			"replayed_rounds": len(rounds) - (replayFrom - 1),
			"truncated_bytes": rep.TruncatedBytes,
			"from_snapshot":   fromSnap,
		})
	}

	e.active = activeBefore

	if ended || (len(rounds) > 0 && allDecided(activeBefore, rebuilt.DecidedAt)) {
		// The journaled run already finished (possibly killed between the
		// last round and the end marker): settle the log and hand back the
		// reconstructed result.
		if !ended {
			if err := e.ck.writeEnd(); err != nil {
				l.Close()
				return rebuilt, err
			}
		}
		if err := e.ck.close(); err != nil {
			return rebuilt, err
		}
		return rebuilt, nil
	}
	return e.run(len(rounds) + 1)
}

// decodeLog parses a checkpoint log's records.
func decodeLog(recs []wal.Record) (meta ckMeta, rounds []RoundRecord, snap *ckSnapshot, ended bool, err error) {
	if len(recs) == 0 {
		return meta, nil, nil, false, fmt.Errorf("core: nothing to resume: empty checkpoint log")
	}
	if recs[0].Kind != recMeta {
		return meta, nil, nil, false, fmt.Errorf("core: checkpoint log does not start with a meta record (kind %d)", recs[0].Kind)
	}
	if err := gob.NewDecoder(bytes.NewReader(recs[0].Payload)).Decode(&meta); err != nil {
		return meta, nil, nil, false, fmt.Errorf("core: decode checkpoint meta: %w", err)
	}
	if meta.N <= 0 || len(meta.Inputs) != meta.N {
		return meta, nil, nil, false, fmt.Errorf("core: corrupt checkpoint meta: n=%d inputs=%d", meta.N, len(meta.Inputs))
	}
	for _, rec := range recs[1:] {
		switch rec.Kind {
		case recRound:
			var rj roundRecordJSON
			if err := json.Unmarshal(rec.Payload, &rj); err != nil {
				return meta, nil, nil, false, fmt.Errorf("core: decode round record: %w", err)
			}
			if rj.R != len(rounds)+1 {
				return meta, nil, nil, false, fmt.Errorf("core: checkpoint log has round %d where %d expected", rj.R, len(rounds)+1)
			}
			if len(rj.Suspects) != meta.N || len(rj.Deliver) != meta.N {
				return meta, nil, nil, false, fmt.Errorf("core: round %d record sized for %d processes, want %d", rj.R, len(rj.Suspects), meta.N)
			}
			rounds = append(rounds, RoundRecord{
				R:        rj.R,
				Suspects: rj.Suspects,
				Deliver:  rj.Deliver,
				Active:   rj.Active,
				Crashed:  rj.Crashed,
			})
		case recSnap:
			var s ckSnapshot
			if err := gob.NewDecoder(bytes.NewReader(rec.Payload)).Decode(&s); err != nil {
				return meta, nil, nil, false, fmt.Errorf("core: decode snapshot: %w", err)
			}
			if s.R > len(rounds) {
				return meta, nil, nil, false, fmt.Errorf("core: snapshot at round %d but only %d rounds journaled", s.R, len(rounds))
			}
			snap = &s
		case recEnd:
			ended = true
		case recMeta:
			return meta, nil, nil, false, fmt.Errorf("core: duplicate meta record at seq %d", rec.Seq)
		default:
			return meta, nil, nil, false, fmt.Errorf("core: unknown checkpoint record kind %d at seq %d", rec.Kind, rec.Seq)
		}
	}
	return meta, rounds, snap, ended, nil
}

// restoreStates loads a snapshot into the algorithms. It reports false —
// without touching any algorithm, so full replay stays valid — when the
// algorithms don't all implement Snapshotter; a Restore that fails partway
// is a hard error, because the fleet is then neither fresh nor restored.
func restoreStates(procs []Algorithm, snap *ckSnapshot) (bool, error) {
	if len(snap.States) != len(procs) {
		return false, fmt.Errorf("core: snapshot holds %d states for %d processes", len(snap.States), len(procs))
	}
	ss := make([]Snapshotter, len(procs))
	for i, a := range procs {
		s, ok := a.(Snapshotter)
		if !ok {
			return false, nil
		}
		ss[i] = s
	}
	for i, s := range ss {
		if err := s.Restore(snap.States[i]); err != nil {
			return false, fmt.Errorf("core: restore p%d from snapshot: %w", i, err)
		}
	}
	return true, nil
}
