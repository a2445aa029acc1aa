package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/obs"
	"repro/internal/predicate"
)

// sinks is the observability wiring every mode shares: the process-wide
// Metrics (under -metrics or -telemetry) and the -events JSONL log.
type sinks struct {
	cfg     config
	metrics *obs.Metrics
	events  *obs.EventLog
	buf     *bufio.Writer
	file    *os.File
}

// openSinks creates the -events file, if asked for. The caller defers
// closeFile and calls finish once the mode's executions are over.
func openSinks(cfg config, tel *obs.Telemetry) (*sinks, error) {
	s := &sinks{cfg: cfg}
	if tel != nil {
		s.metrics = tel.Metrics
	}
	if cfg.eventsFile != "" {
		file, err := os.Create(cfg.eventsFile)
		if err != nil {
			return nil, fmt.Errorf("create events file: %w", err)
		}
		s.file, s.buf = file, bufio.NewWriter(file)
		s.events = obs.NewEventLog(s.buf)
	}
	return s, nil
}

// observer fans out to the sinks and to more (a tracer, say); nil when
// nothing listens.
func (s *sinks) observer(more ...obs.Observer) obs.Observer {
	return obs.Multi(append([]obs.Observer{s.metrics, s.events}, more...)...)
}

// finish flushes the event log and reports what the sinks hold: the event
// count, and under -metrics the JSON snapshot.
func (s *sinks) finish(w io.Writer) error {
	if s.events != nil {
		if err := s.buf.Flush(); err != nil {
			return fmt.Errorf("flush events: %w", err)
		}
		if err := s.events.Err(); err != nil {
			return fmt.Errorf("write events: %w", err)
		}
		fmt.Fprintf(w, "%d events written to %s\n", s.events.Lines(), s.cfg.eventsFile)
	}
	if s.metrics != nil && s.cfg.metrics {
		b, err := s.metrics.Snapshot().JSON()
		if err != nil {
			return fmt.Errorf("encode metrics: %w", err)
		}
		fmt.Fprintf(w, "metrics:\n%s\n", b)
	}
	return nil
}

func (s *sinks) closeFile() {
	if s.file != nil {
		s.file.Close()
	}
}

// branch is one enumerator of an mc exploration: the bespoke -system
// families have one, a compiled -model one per disjunct.
type branch struct {
	label string
	enum  hoalg.Enum
}

// resolved is what the -system/-model and -alg flags name.
type resolved struct {
	// pred is the model's membership check over a trace.
	pred predicate.P

	// oracle samples one path of the model from -seed (plain runs). For a
	// -model it can run out of plans: failed then returns why.
	oracle core.Oracle
	failed func() error

	// branches are the model's enumerators (mc).
	branches []branch

	// factory is the algorithm, nil for -alg none; bound is the k its
	// decisions are audited against; rounds the trace length -alg none
	// collects.
	factory core.Factory
	bound   int
	rounds  int
}

// resolve is the one reading of -system/-model and -alg. A plain run gets
// the seeded oracle, an mc run the enumerators: building the other would
// refuse systems (or sizes) that mode never uses. observer, when non-nil,
// also hears the algorithm's own events.
func resolve(cfg config, observer obs.Observer) (*resolved, error) {
	n, f, k, seed := cfg.n, cfg.f, cfg.k, cfg.seed
	res := &resolved{failed: func() error { return nil }, rounds: cfg.rounds}

	if cfg.model != "" {
		// A model expression replaces the bespoke system pair: the compiled
		// seeded oracle samples one path the model allows, the compiled
		// enumerators list them all (a disjunction branch by branch —
		// mixing branches per round could satisfy neither disjunct), and
		// the compiled predicate is the same membership check the -system
		// families get.
		expr, err := hoalg.Resolve(cfg.model, hoalg.Params{N: n, F: f, K: k, Stab: modelStab})
		if err != nil {
			return nil, err
		}
		res.pred = expr.Compile()
		if cfg.mode == "mc" {
			bs, err := expr.EnumBranches(n)
			if err != nil {
				return nil, err
			}
			for _, b := range bs {
				res.branches = append(res.branches, branch{label: b.Expr.String(), enum: b.Enum})
			}
		} else {
			walk, err := expr.Oracle(n, seed)
			if err != nil {
				return nil, err
			}
			res.oracle, res.failed = walk, walk.Err
		}
	} else {
		var (
			sample func() core.Oracle
			enum   func() (hoalg.Enum, error) // nil: the family has no enumerator
		)
		switch cfg.system {
		case "omission":
			res.pred = predicate.SendOmission(f)
			sample = func() core.Oracle { return adversary.Omission(n, f, 0.7, seed) }
			enum = func() (hoalg.Enum, error) { return adversary.EnumSendOmission(n, f) }
		case "crash":
			res.pred = predicate.SyncCrash(f)
			sample = func() core.Oracle { return adversary.Crash(n, f, seed) }
			enum = func() (hoalg.Enum, error) { return adversary.EnumSyncCrash(n, f) }
		case "chain":
			res.pred = predicate.SyncCrash(f)
			sample = func() core.Oracle { return adversary.ChainCrash(n, f, k) }
		case "async":
			res.pred = predicate.PerRoundBudget(f)
			sample = func() core.Oracle { return adversary.AsyncBudget(n, f, true, seed) }
			enum = func() (hoalg.Enum, error) { return adversary.EnumPerRoundBudget(n, f) }
		case "sharedmem":
			res.pred = predicate.SharedMemory(f)
			sample = func() core.Oracle { return adversary.SharedMem(n, f, seed) }
		case "snapshot":
			res.pred = predicate.AtomicSnapshot(f)
			sample = func() core.Oracle { return adversary.SnapshotChain(n, f, seed) }
		case "kset":
			res.pred = predicate.KSetDetector(k)
			sample = func() core.Oracle { return adversary.KSetUncertainty(n, k, seed) }
			enum = func() (hoalg.Enum, error) { return adversary.EnumKSet(n, k) }
		case "identical":
			res.pred = predicate.IdenticalSuspects()
			sample = func() core.Oracle { return adversary.Identical(n, seed) }
		case "s":
			res.pred = predicate.NeverSuspectedExists()
			sample = func() core.Oracle { return adversary.SpareNeverSuspected(n, core.PID(seed)%core.PID(n), seed) }
		case "benign":
			res.pred = predicate.SendOmission(0)
			sample = func() core.Oracle { return adversary.Benign(n) }
		}
		switch {
		case cfg.mode == "mc" && enum == nil:
			return nil, fmt.Errorf("mc enumerates systems async|kset|omission|crash, got %q", cfg.system)
		case cfg.mode == "mc":
			e, err := enum()
			if err != nil {
				return nil, err
			}
			res.branches = []branch{{label: cfg.system, enum: e}}
		case sample == nil:
			return nil, fmt.Errorf("unknown system %q", cfg.system)
		default:
			res.oracle = sample()
		}
	}

	// Which mode runs which algorithm: the quorum rule exists to be model
	// checked, the consensus algorithms and bare trace collection to be run.
	mcAlg, plainAlg := false, true
	switch cfg.alg {
	case "qkset":
		// Quorum-gated k-set decides among at most f+1 distinct minima.
		mcAlg, plainAlg = true, false
		res.bound = f + 1
		if cfg.bug {
			res.factory = agreement.QuorumKSetBuggy(f)
		} else {
			res.factory = agreement.QuorumKSet(f)
		}
	case "kset":
		mcAlg = true
		res.bound = k
		if observer != nil {
			res.factory = agreement.OneRoundKSetObserved(observer)
		} else {
			res.factory = agreement.OneRoundKSet()
		}
	case "floodmin":
		mcAlg = true
		r := f/k + 1
		if cfg.rounds > 0 {
			r = cfg.rounds
		}
		res.factory, res.bound = agreement.FloodMin(r), k
	case "floodset":
		res.factory, res.bound = agreement.FloodMin(f+1), 1
	case "coordinator":
		res.factory, res.bound = agreement.RotatingCoordinator(), 1
	case "none":
		if res.rounds <= 0 {
			res.rounds = 5
		}
	default:
		plainAlg = false
	}
	switch mc := cfg.mode == "mc"; {
	case mc && !mcAlg:
		return nil, fmt.Errorf("mc supports algorithms qkset|kset|floodmin, got %q", cfg.alg)
	case !mc && !plainAlg:
		return nil, fmt.Errorf("unknown algorithm %q", cfg.alg)
	}
	return res, nil
}
