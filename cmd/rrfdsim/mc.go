package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	rrfd "repro"
)

// runMC executes the systematic model checker: exhaustive (or bounded)
// exploration of every adversary schedule an enumerable model allows over
// a small system, checking validity and k-agreement on every schedule.
// With -model, the enumerator is compiled from the model expression and
// every explored trace is additionally checked for model membership; a
// disjunction is explored branch by branch (mixing branches per round
// could satisfy neither disjunct). A violation prints a shrunk,
// replayable counterexample and exits non-zero; -mc-replay re-executes
// one recorded schedule.
func runMC(cfg config, tel *rrfd.Telemetry, w io.Writer) error {
	n, f, k := cfg.n, cfg.f, cfg.k
	m, err := resolve(cfg, nil)
	if err != nil {
		return err
	}
	if cfg.bug && cfg.alg != "qkset" {
		return fmt.Errorf("-bug plants the wrong-quorum decision rule: use -alg qkset")
	}
	exps, bound := m.branches, m.bound

	inputs := make([]rrfd.Value, n)
	for i := range inputs {
		inputs[i] = i
	}

	makeSpec := func(e branch, tracer *rrfd.Tracer) rrfd.MCRunSpec {
		spec := rrfd.MCRunSpec{
			N:       n,
			Inputs:  inputs,
			Factory: m.factory,
			Oracle: func(ctx *rrfd.MCCtx) rrfd.Oracle {
				return rrfd.EnumeratedAdversary(ctx, n, e.enum)
			},
			Props: []rrfd.MCProperty{
				rrfd.MCValidity(inputs),
				rrfd.MCKAgreement(bound),
			},
			// The compiled membership check is a path property, which makes
			// state-hash pruning unsound: -model explorations run unpruned.
			Mark: cfg.model == "",
		}
		if cfg.model != "" {
			spec.Model = &m.pred
		}
		if tracer != nil {
			spec.Observer = tracer
		}
		return spec
	}

	if cfg.mcReplay != "" {
		if len(exps) > 1 {
			return fmt.Errorf("-mc-replay fixes one choice sequence, which is ambiguous over the %d branches of model %q: replay against the single branch expression instead", len(exps), cfg.model)
		}
		// A replayed counterexample is a single deterministic execution, so
		// it can carry a causal tracer; validate() rejects -perfetto for the
		// exploration itself (thousands of interleaved schedules).
		var tracer *rrfd.Tracer
		if cfg.perfetto != "" {
			tracer = rrfd.NewTracer()
		}
		run := rrfd.MCCheckRun(makeSpec(exps[0], tracer))
		choices, err := rrfd.ParseChoices(cfg.mcReplay)
		if err != nil {
			return err
		}
		rerr := rrfd.MCReplay(choices, run)
		var empty *rrfd.EmptyFamilyError
		if errors.As(rerr, &empty) {
			// Not a reproduced violation: there is no schedule to replay.
			return fmt.Errorf("mc: replaying %q: %w", exps[0].label, rerr)
		}
		if tracer != nil {
			if err := tracer.ExportFile(cfg.perfetto); err != nil {
				return fmt.Errorf("write perfetto trace: %w", err)
			}
			fmt.Fprintf(w, "perfetto trace written to %s\n", cfg.perfetto)
		}
		if rerr != nil {
			fmt.Fprintf(w, "replay %s: violation reproduced: %v\n", cfg.mcReplay, rerr)
			return fmt.Errorf("mc: replayed schedule violates its properties")
		}
		fmt.Fprintf(w, "replay %s: no violation\n", cfg.mcReplay)
		return nil
	}

	snk, err := openSinks(cfg, tel)
	if err != nil {
		return err
	}
	defer snk.closeFile()

	opts := rrfd.MCOptions{
		MaxSchedules: cfg.mcMax,
		MaxDepth:     cfg.mcDepth,
		Samples:      cfg.mcSamples,
		Seed:         cfg.seed,
		Workers:      cfg.workers,
	}
	if observer := snk.observer(); observer != nil {
		opts.Observer = observer
	}

	if cfg.model != "" {
		fmt.Fprintf(w, "mc: model=%q alg=%s n=%d f=%d k=%d bound=%d branches=%d\n",
			cfg.model, cfg.alg, n, f, k, bound, len(exps))
	} else {
		fmt.Fprintf(w, "mc: system=%s alg=%s n=%d f=%d k=%d bound=%d\n",
			cfg.system, cfg.alg, n, f, k, bound)
	}

	start := time.Now()
	var (
		schedules int
		cx        *rrfd.MCCounterexample
		cxLabel   string
		exhausted = true
		limitHit  bool
	)
	for _, e := range exps {
		res, err := rrfd.MCExplore(opts, rrfd.MCCheckRun(makeSpec(e, nil)))
		if err != nil {
			return fmt.Errorf("mc: exploring %q: %w", e.label, err)
		}
		schedules += res.Schedules
		if cfg.model != "" {
			fmt.Fprintf(w, "branch %q: schedules=%d pruned=%d sampled=%d symmetry_skips=%d sleep_skips=%d max_depth=%d\n",
				e.label, res.Schedules, res.Pruned, res.Sampled, res.SymmetrySkips, res.SleepSkips, res.Stats.MaxDepth)
		} else {
			fmt.Fprintf(w, "schedules=%d pruned=%d sampled=%d symmetry_skips=%d sleep_skips=%d max_depth=%d\n",
				res.Schedules, res.Pruned, res.Sampled, res.SymmetrySkips, res.SleepSkips, res.Stats.MaxDepth)
		}
		exhausted = exhausted && res.Exhausted
		limitHit = limitHit || res.LimitHit
		if res.Counterexample != nil {
			cx, cxLabel = res.Counterexample, e.label
			break
		}
	}
	// Exploration throughput goes to the telemetry registry only — the
	// printed report stays wall-time free, so fixed seeds keep producing
	// byte-identical output.
	if tel != nil {
		if secs := time.Since(start).Seconds(); secs > 0 {
			tel.Hist.Get("mc_schedules_per_sec").Record(int64(float64(schedules) / secs))
		}
	}

	if err := snk.finish(w); err != nil {
		return err
	}

	switch {
	case cx != nil:
		fmt.Fprintf(w, "violation: %v\n", cx.Err)
		replay := rrfd.FormatChoices(cx.Choices)
		fmt.Fprintf(w, "counterexample (%d choices, shrunk from %d): %s\n",
			len(cx.Choices), len(cx.FirstFound), replay)
		if cfg.model != "" {
			fmt.Fprintf(w, "replay with: -mc -model '%s' -mc-replay %s (same alg flags)\n", cxLabel, replay)
		} else {
			fmt.Fprintf(w, "replay with: -mc -mc-replay %s (same system/alg flags)\n", replay)
		}
		return fmt.Errorf("mc: property violated")
	case exhausted:
		fmt.Fprintln(w, "exhausted: every schedule satisfies the properties")
	case limitHit:
		fmt.Fprintf(w, "limit: %d schedules run without exhausting the space (raise -mc-max)\n", schedules)
	default:
		fmt.Fprintf(w, "bounded: sampled beyond depth %d, no violation found\n", cfg.mcDepth)
	}
	return nil
}
