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
func openSinks(cfg config, tel *obs.Metrics) (*sinks, error) {
	s := &sinks{cfg: cfg, metrics: tel}
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

// branch is one enumerator of an mc exploration: one per top-level
// disjunct of the model.
type branch struct {
	label string
	enum  hoalg.Enum
}

// systems maps each -system name to its model, as a catalog name or
// expression hoalg.Resolve reads, and to the hand-written adversary that
// samples it in a plain run. The samplers stay because they run at any n;
// the compiled oracle and enumerators stop at n = 4.
var systems = map[string]struct {
	model  string
	sample func(n, f, k int, seed int64) core.Oracle
}{
	"omission":  {"sync-omission", func(n, f, _ int, seed int64) core.Oracle { return adversary.Omission(n, f, 0.7, seed) }},
	"crash":     {"sync-crash", func(n, f, _ int, seed int64) core.Oracle { return adversary.Crash(n, f, seed) }},
	"chain":     {"sync-crash", func(n, f, k int, _ int64) core.Oracle { return adversary.ChainCrash(n, f, k) }},
	"async":     {"async", func(n, f, _ int, seed int64) core.Oracle { return adversary.AsyncBudget(n, f, true, seed) }},
	"sharedmem": {"shared-memory", func(n, f, _ int, seed int64) core.Oracle { return adversary.SharedMem(n, f, seed) }},
	"snapshot":  {"atomic-snapshot", func(n, f, _ int, seed int64) core.Oracle { return adversary.SnapshotChain(n, f, seed) }},
	"kset":      {"kset-detector", func(n, _, k int, seed int64) core.Oracle { return adversary.KSetUncertainty(n, k, seed) }},
	"identical": {"identical", func(n, _, _ int, seed int64) core.Oracle { return adversary.Identical(n, seed) }},
	"s": {"neversusp", func(n, _, _ int, seed int64) core.Oracle {
		return adversary.SpareNeverSuspected(n, core.PID(seed)%core.PID(n), seed)
	}},
	"benign": {"selftrust & atmost(0)", func(n, _, _ int, _ int64) core.Oracle { return adversary.Benign(n) }},
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

// resolve is the one reading of -system/-model and -alg. Either flag names
// a model expression, whose compiled predicate is the membership check and
// whose compiled enumerators mc explores (a disjunction branch by branch —
// mixing branches per round could satisfy neither disjunct). A plain run
// samples a -system with its hand-written adversary and a -model with the
// compiled seeded oracle. Each mode builds only what it uses, so a size one
// mode cannot serve does not refuse the other. observer, when non-nil, also
// hears the algorithm's own events.
func resolve(cfg config, observer obs.Observer) (*resolved, error) {
	n, f, k, seed := cfg.n, cfg.f, cfg.k, cfg.seed
	res := &resolved{failed: func() error { return nil }, rounds: cfg.rounds}

	model := cfg.model
	var sample func(n, f, k int, seed int64) core.Oracle
	if model == "" {
		sys, ok := systems[cfg.system]
		if !ok {
			return nil, fmt.Errorf("unknown system %q", cfg.system)
		}
		model, sample = sys.model, sys.sample
	}
	expr, err := hoalg.Resolve(model, hoalg.Params{N: n, F: f, K: k, Stab: modelStab})
	if err != nil {
		return nil, err
	}
	res.pred = expr.Compile()
	switch {
	case cfg.mode == "mc":
		bs, err := expr.EnumBranches(n)
		if err != nil {
			return nil, err
		}
		for _, b := range bs {
			res.branches = append(res.branches, branch{label: b.Expr.String(), enum: b.Enum})
		}
	case sample != nil:
		res.oracle = sample(n, f, k, seed)
	default:
		walk, err := expr.Oracle(n, seed)
		if err != nil {
			return nil, err
		}
		res.oracle, res.failed = walk, walk.Err
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
