// Command rrfdsim runs one configurable RRFD execution: pick a system
// (adversary), an algorithm, and parameters; it prints the decisions, the
// round count, optionally the full trace, and checks the system's model
// predicate on the recorded execution.
//
// Observability: -metrics prints a JSON metrics snapshot (rounds to
// decision, suspicions, D-set size histogram, per-phase latency
// histograms), -events FILE streams the execution as JSONL structured
// events, -perfetto FILE writes the execution as a causal Chrome/Perfetto
// trace (round/phase spans, Emit→Deliver message flows, suspicion and
// decide instants — with -chaos it traces the first violation's minimized
// replay, with -mc-replay the replayed schedule), and -telemetry ADDR
// serves /metrics (Prometheus text), /snapshot (JSON) and /debug/pprof
// live while the process runs.
//
// Robustness: -chaos switches to the randomized fault-injection campaign —
// N seeded executions of async k-set agreement over reliable links on a
// lossy substrate, each run under a random fault plan (drop, duplicate,
// delay, send-omission, healing partitions, crashes), each checked against
// validity, k-agreement and the eq. (3) trace predicate. On a violation it
// prints the scheduler seed, the fault plan and a delta-debugged minimal
// plan, and exits non-zero.
//
// Real network: -substrate tcp runs the same round protocol as one OS
// process per pid over loopback TCP (each child inherits its pre-bound
// listener), kills the highest-pid child once the mesh is up, restarts
// it as incarnation 2 on the same listener, and audits the collected
// decisions for validity and k-agreement — survivors must degrade the
// dead peer into D(i,r) suspicions via the wall-clock watchdog, and the
// restarted process must re-enter and terminate instead of deadlocking.
// With -substrate tcp, -watchdog is in milliseconds.
//
// Agreement service: -chaos-serve runs the kill-and-recover service
// campaign — an in-process loopback cluster of rrfdserve-style nodes
// under concurrent seeded client load, with one node killed at a planted
// acknowledgement count mid-batch, its journal audited offline (no
// acknowledged decision lost, none duplicated), the node restarted from
// the journal, and the identical load replayed with reused request IDs
// (no retry may double-decide, k-agreement across all clients). -bug
// plants the ack-before-journal inversion the audit must catch.
//
// Model checking: -mc switches to the systematic explorer — every
// adversary schedule an enumerable model (async, kset, omission, crash)
// allows over a small system (n ≤ 4) is executed and checked against
// validity and k-agreement, with state-hash pruning and symmetry/sleep-set
// reduction. -mc-depth bounds enumeration with seeded random frontier
// sampling; a violation prints a shrunk counterexample replayable with
// -mc-replay, and exits non-zero. -bug plants a wrong-quorum-size decision
// rule (-alg qkset) the checker demonstrably catches.
//
// Model algebra: -model takes a predicate expression over the per-round
// suspicion sets D(i,r) — or a name from the derived-model catalog
// (internal/hoalg) — and compiles it into whichever artifact the selected
// mode needs: plain runs sample its oracle and check its predicate, -mc
// enumerates its schedules branch by branch with the predicate as a trace
// property, -chaos pins the campaign to its compiled fault plan under
// lock-step rounds.
//
// Crash recovery: -checkpoint DIR journals the execution to a write-ahead
// log; -kill-after R deterministically kills the run at a round boundary;
// -resume DIR reconstructs the journaled run (same flags = same oracle and
// algorithm) and continues it to completion. -chaos-recover runs the
// crash-and-recover campaign: every run crashes at least one process,
// usually restarts it from its durable journal, and audits safety
// (validity, (f+1)-agreement, per-round budget, log-before-act durability);
// -bug plants the amnesia bug — a recovered process deciding from its
// pre-crash un-flushed state — to demo that the audit catches it.
//
// Usage examples:
//
//	go run ./cmd/rrfdsim -system kset -k 2 -n 8 -alg kset
//	go run ./cmd/rrfdsim -system kset -k 2 -n 8 -alg kset -metrics -events events.jsonl
//	go run ./cmd/rrfdsim -system kset -k 2 -n 8 -alg kset -perfetto trace.json -telemetry localhost:6060
//	go run ./cmd/rrfdsim -system crash -n 8 -f 3 -alg floodmin
//	go run ./cmd/rrfdsim -system s -n 6 -alg coordinator -trace
//	go run ./cmd/rrfdsim -system snapshot -n 6 -f 2 -alg none -rounds 4
//	go run ./cmd/rrfdsim -substrate tcp -n 4 -f 1 -k 2 -rounds 3
//	go run ./cmd/rrfdsim -model sync-crash -n 3 -f 1 -alg none -rounds 3
//	go run ./cmd/rrfdsim -model 'selftrust & atmost(1)' -n 3 -f 1 -alg none -rounds 3
//	go run ./cmd/rrfdsim -mc -model 'kset(2) | perround(1)' -n 3 -f 1 -k 2 -alg qkset
//	go run ./cmd/rrfdsim -chaos -model async -n 5 -f 1 -k 2 -runs 20 -rounds 3
//	go run ./cmd/rrfdsim -mc -system async -n 3 -f 1 -alg qkset
//	go run ./cmd/rrfdsim -mc -system async -n 3 -f 1 -alg qkset -bug -workers 4
//	go run ./cmd/rrfdsim -mc -system async -n 3 -f 1 -alg qkset -bug -mc-replay c1:4
//	go run ./cmd/rrfdsim -mc -system omission -n 3 -f 1 -alg floodmin -rounds 3
//	go run ./cmd/rrfdsim -mc -system crash -n 3 -f 1 -alg floodmin -mc-depth 2
//	go run ./cmd/rrfdsim -chaos -n 6 -f 2 -k 3 -runs 200 -drop 0.3 -seed 7
//	go run ./cmd/rrfdsim -chaos -runs 500 -workers 8   # parallel, same output
//	go run ./cmd/rrfdsim -chaos -runs 50 -drop 0.5 -partition 0.5 -crashes 2 -metrics
//	go run ./cmd/rrfdsim -system crash -alg floodmin -checkpoint /tmp/ck -kill-after 2
//	go run ./cmd/rrfdsim -system crash -alg floodmin -resume /tmp/ck
//	go run ./cmd/rrfdsim -chaos-recover -n 5 -f 1 -runs 100 -seed 42
//	go run ./cmd/rrfdsim -chaos-recover -runs 60 -bug
//	go run ./cmd/rrfdsim -chaos-serve -n 3 -f 1 -seed 7
//	go run ./cmd/rrfdsim -chaos-serve -n 3 -f 1 -seed 7 -bug   # must fail
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	rrfd "repro"
)

// config collects every flag so run is unit-testable without a flag set.
type config struct {
	system, alg string
	model       string
	n, f, k     int
	rounds      int
	seed        int64
	dumpTrace   bool
	noTrace     bool
	outFile     string
	metrics     bool
	eventsFile  string
	perfetto    string
	telemetry   string

	// crash-recovery flags
	ckptDir      string
	killAfter    int
	resumeDir    string
	chaosRecover bool
	chaosServe   bool

	// model-checking flags
	mc        bool
	mcMax     int
	mcDepth   int
	mcSamples int
	mcReplay  string

	// real-network flags (-substrate tcp and its internal child mode)
	substrate      string
	netChild       bool
	netMe          int
	netIncarnation int
	netLinger      int
	netAddrs       string

	// chaos-mode flags
	chaos     bool
	workers   int
	runs      int
	drop      float64
	dup       float64
	delay     float64
	delaymax  int
	omit      float64
	partition float64
	crashes   int
	watchdog  int
	bug       bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.system, "system", "kset", "system: omission|crash|chain|async|sharedmem|snapshot|kset|identical|s|benign")
	flag.StringVar(&cfg.alg, "alg", "kset", "algorithm: kset|floodmin|floodset|coordinator|none, or qkset (the n−f quorum-min rule; -mc only)")
	flag.StringVar(&cfg.model, "model", "", "model expression or catalog name (internal/hoalg): overrides -system in plain runs, drives -mc enumeration branch by branch, and fixes the -chaos fault plan")
	flag.IntVar(&cfg.n, "n", 8, "number of processes")
	flag.IntVar(&cfg.f, "f", 2, "fault budget")
	flag.IntVar(&cfg.k, "k", 2, "agreement parameter k")
	flag.IntVar(&cfg.rounds, "rounds", 0, "rounds for -alg none / floodmin override (0 = default)")
	flag.Int64Var(&cfg.seed, "seed", 1, "adversary seed")
	flag.BoolVar(&cfg.dumpTrace, "trace", false, "dump the execution trace")
	flag.BoolVar(&cfg.noTrace, "notrace", false, "disable trace recording (benchmarking; incompatible with -o and -trace)")
	flag.StringVar(&cfg.outFile, "o", "", "write the execution trace as JSON to this file")
	flag.BoolVar(&cfg.metrics, "metrics", false, "print a JSON metrics snapshot after the run")
	flag.StringVar(&cfg.eventsFile, "events", "", "stream structured JSONL events to this file")
	flag.StringVar(&cfg.perfetto, "perfetto", "", "write the execution as Chrome/Perfetto trace-event JSON to this file (with -chaos: the first violation's replay; with -mc: requires -mc-replay)")
	flag.StringVar(&cfg.telemetry, "telemetry", "", "serve /metrics, /snapshot and /debug/pprof on this address (e.g. localhost:6060)")
	flag.StringVar(&cfg.ckptDir, "checkpoint", "", "journal the execution to a WAL in this directory (resumable with -resume)")
	flag.IntVar(&cfg.killAfter, "kill-after", 0, "kill the run after this round completes and is journaled (requires -checkpoint)")
	flag.StringVar(&cfg.resumeDir, "resume", "", "resume a journaled run from this directory (pass the original system/alg flags)")
	flag.BoolVar(&cfg.chaosRecover, "chaos-recover", false, "run the crash-and-recover chaos campaign (crashes + supervised restarts + safety audit)")
	flag.BoolVar(&cfg.chaosServe, "chaos-serve", false, "run the kill-and-recover agreement-service campaign (client load + mid-batch node kill + journal audit + idempotent replay)")
	flag.BoolVar(&cfg.mc, "mc", false, "model-check: exhaustively explore every adversary schedule of a small system")
	flag.IntVar(&cfg.mcMax, "mc-max", 0, "mc: schedule budget (0 = 1<<20)")
	flag.IntVar(&cfg.mcDepth, "mc-depth", 0, "mc: bound enumeration to this choice depth, sample beyond it (0 = unbounded)")
	flag.IntVar(&cfg.mcSamples, "mc-samples", 0, "mc: random completions per frontier node when -mc-depth is set (0 = 8)")
	flag.StringVar(&cfg.mcReplay, "mc-replay", "", "mc: replay one recorded counterexample choice string (e.g. c1:4)")
	flag.StringVar(&cfg.substrate, "substrate", "virtual", "substrate: virtual (in-process scheduler) | tcp (one OS process per pid over loopback TCP, with a kill-and-restart)")
	flag.BoolVar(&cfg.netChild, "net-child", false, "internal: run as one TCP mesh process (spawned by -substrate tcp)")
	flag.IntVar(&cfg.netMe, "net-me", 0, "internal: TCP mesh child pid")
	flag.IntVar(&cfg.netIncarnation, "net-incarnation", 1, "internal: TCP mesh child incarnation")
	flag.IntVar(&cfg.netLinger, "net-linger", 0, "tcp: post-decision linger in ms so slower peers still hear the last round (0 = 250)")
	flag.StringVar(&cfg.netAddrs, "net-addrs", "", "internal: comma-separated TCP mesh addresses")
	flag.BoolVar(&cfg.chaos, "chaos", false, "run the randomized fault-injection campaign instead of a single execution")
	flag.IntVar(&cfg.workers, "workers", 0, "chaos modes: concurrent runs (0 = one per CPU, 1 = sequential; output is identical either way)")
	flag.IntVar(&cfg.runs, "runs", 0, "chaos: number of randomized executions (0 = 100)")
	flag.Float64Var(&cfg.drop, "drop", 0, "chaos: per-message drop-rate bound (0 with all other rates 0 = 0.3)")
	flag.Float64Var(&cfg.dup, "dup", 0, "chaos: per-message duplication-rate bound")
	flag.Float64Var(&cfg.delay, "delay", 0, "chaos: per-message delay-rate bound")
	flag.IntVar(&cfg.delaymax, "delaymax", 0, "chaos: max injected delay in steps (0 = 16)")
	flag.Float64Var(&cfg.omit, "omit", 0, "chaos: send-omission rate bound for up to f faulty senders")
	flag.Float64Var(&cfg.partition, "partition", 0, "chaos: per-run probability of a healing partition")
	flag.IntVar(&cfg.crashes, "crashes", 0, "chaos modes: max crash failures per run (clamped to f)")
	flag.IntVar(&cfg.watchdog, "watchdog", 0, "chaos modes: round watchdog in steps (0 = default)")
	flag.BoolVar(&cfg.bug, "bug", false, "plant a bug the campaign catches: sub-quorum decision (-chaos), amnesia (-chaos-recover), ack-before-journal (-chaos-serve) or the wrong quorum rule (-mc -alg qkset)")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// modelStab is the stabilization round the catalog's eventual models
// (eventually-s, eventually-sync) are instantiated with from the CLI;
// explicit eventually(r, ...) expressions pick their own window.
const modelStab = 2

func run(cfg config, w io.Writer) error {
	if cfg.netChild {
		return runNetChild(cfg, w)
	}
	if err := validate(cfg); err != nil {
		return err
	}
	if cfg.substrate == "tcp" {
		return runNetParent(cfg, w)
	}

	// One Telemetry per process: its Metrics joins every mode's observer
	// chain, its histogram registry receives the non-observer meters
	// (chaos per-run wall time, par task latency / queue depth, mc
	// schedule rate), and the optional endpoint serves both live.
	var tel *rrfd.Telemetry
	if cfg.metrics || cfg.telemetry != "" {
		tel = rrfd.NewTelemetry()
		rrfd.SetPoolMeter(&rrfd.PoolMeter{
			TaskNS:     tel.Hist.Get("par_task_ns"),
			QueueDepth: tel.Hist.Get("par_queue_depth"),
		})
		defer rrfd.SetPoolMeter(nil)
	}
	if cfg.telemetry != "" {
		srv, err := rrfd.ServeTelemetry(cfg.telemetry, tel)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(w, "telemetry listening on http://%s/ (/metrics, /snapshot, /debug/pprof/)\n", srv.Addr())
	}

	if cfg.mc {
		return runMC(cfg, tel, w)
	}
	if cfg.chaos {
		return runChaos(cfg, tel, w)
	}
	if cfg.chaosRecover {
		return runChaosRecover(cfg, tel, w)
	}
	if cfg.chaosServe {
		return runChaosServe(cfg, tel, w)
	}

	// Observability wiring: metrics, the JSONL event sink and the causal
	// tracer all hang off the same observer fan-out.
	snk, err := openSinks(cfg, tel)
	if err != nil {
		return err
	}
	defer snk.closeFile()
	var tracer *rrfd.Tracer
	if cfg.perfetto != "" {
		tracer = rrfd.NewTracer()
	}
	observer := snk.observer(tracer)

	m, err := resolve(cfg, observer)
	if err != nil {
		return err
	}
	n, f, k, seed := cfg.n, cfg.f, cfg.k, cfg.seed

	var opts []rrfd.Option
	if observer != nil {
		opts = append(opts, rrfd.WithObserver(observer))
	}
	if cfg.noTrace {
		opts = append(opts, rrfd.WithoutTrace())
	}
	if dir := cfg.ckptDir; dir != "" || cfg.resumeDir != "" {
		// On resume, pass the same checkpoint options so the continuation
		// keeps journaling to the log with the original durability policy.
		if dir == "" {
			dir = cfg.resumeDir
		}
		opts = append(opts, rrfd.WithCheckpointing(dir, rrfd.CheckpointOptions{Sync: rrfd.SyncAlways}))
	}
	if cfg.killAfter > 0 {
		opts = append(opts, rrfd.WithHaltAfterRound(cfg.killAfter))
	}

	finish := func(tr *rrfd.Trace) error {
		if err := writeTrace(w, cfg.outFile, tr); err != nil {
			return err
		}
		if err := snk.finish(w); err != nil {
			return err
		}
		if tracer != nil {
			if err := tracer.ExportFile(cfg.perfetto); err != nil {
				return fmt.Errorf("write perfetto trace: %w", err)
			}
			fmt.Fprintf(w, "perfetto trace written to %s\n", cfg.perfetto)
		}
		if tr != nil {
			return report(w, m.pred, tr)
		}
		return nil
	}

	inputs := make([]rrfd.Value, n)
	for i := range inputs {
		inputs[i] = i
	}

	// failed reports why a run ended in error: a sampled model that ran out
	// of plans says so itself, and says it better than the engine rejecting
	// the plan it could not produce.
	failed := func(err error) error {
		if ferr := m.failed(); ferr != nil {
			return fmt.Errorf("%s: %w", sourceLabel(cfg), ferr)
		}
		return err
	}

	if m.factory == nil {
		tr, err := rrfd.CollectTrace(n, m.rounds, m.oracle, opts...)
		if err != nil {
			return failed(err)
		}
		fmt.Fprintf(w, "collected %d rounds from %s\n", tr.Len(), sourceLabel(cfg))
		if cfg.dumpTrace {
			fmt.Fprint(w, tr.String())
		}
		return finish(tr)
	}

	var res *rrfd.Result
	if cfg.resumeDir != "" {
		res, err = rrfd.Resume(cfg.resumeDir, m.factory, m.oracle, opts...)
	} else {
		res, err = rrfd.Run(n, inputs, m.factory, m.oracle, opts...)
	}
	var halt *rrfd.HaltError
	if errors.As(err, &halt) {
		// A deliberate kill at a round boundary: the journal is settled and
		// the run is suspended, not failed.
		fmt.Fprintf(w, "halted after round %d (journaled); continue with -resume %s\n",
			halt.Round, halt.Dir)
		return finish(res.Trace)
	}
	if err != nil {
		return failed(err)
	}
	if cfg.resumeDir != "" {
		fmt.Fprintf(w, "resumed from %s\n", cfg.resumeDir)
	}
	if cfg.model != "" {
		fmt.Fprintf(w, "model=%q alg=%s n=%d f=%d k=%d seed=%d\n", cfg.model, cfg.alg, n, f, k, seed)
	} else {
		fmt.Fprintf(w, "system=%s alg=%s n=%d f=%d k=%d seed=%d\n", cfg.system, cfg.alg, n, f, k, seed)
	}
	fmt.Fprintf(w, "rounds: %d, crashed: %s\n", res.Rounds, res.Crashed)
	fmt.Fprintf(w, "decisions (%d distinct):\n", res.DistinctOutputs())
	for p := rrfd.PID(0); int(p) < n; p++ {
		if v, ok := res.Outputs[p]; ok {
			fmt.Fprintf(w, "  p%-3d → %-6v (round %d)\n", p, v, res.DecidedAt[p])
		} else {
			fmt.Fprintf(w, "  p%-3d → (no decision)\n", p)
		}
	}
	if err := rrfd.ValidateAgreement(res, inputs, m.bound, 0); err != nil {
		fmt.Fprintf(w, "agreement check: %v\n", err)
	} else {
		fmt.Fprintf(w, "agreement check: %d-set agreement holds\n", m.bound)
	}
	if cfg.dumpTrace {
		fmt.Fprint(w, res.Trace.String())
	}
	return finish(res.Trace)
}

// runChaos executes the randomized fault-injection campaign, streaming the
// per-violation reports and the final summary to w. A campaign with safety
// violations is an error, so CI fails loudly.
func runChaos(cfg config, tel *rrfd.Telemetry, w io.Writer) error {
	snk, err := openSinks(cfg, tel)
	if err != nil {
		return err
	}
	defer snk.closeFile()

	ccfg := chaosConfig(cfg)
	if cfg.model != "" {
		// A model expression pins the campaign to its compiled fault plan
		// (every run, same plan, varying schedules) and swaps the stock
		// eq. (3) trace check for the compiled model predicate.
		expr, err := rrfd.ResolveModel(cfg.model, rrfd.ModelParams{N: cfg.n, F: cfg.f, K: cfg.k, Stab: modelStab})
		if err != nil {
			return err
		}
		plan, err := expr.CompilePlan(cfg.n, cfg.seed)
		if err != nil {
			return err
		}
		pred := expr.Compile()
		ccfg.FixedPlan = &plan
		ccfg.TracePred = &pred
		// Lock-step rounds on the engine: the compiled plan is the only
		// suspicion source, so the run satisfies (honest) or violates
		// (negated) the model by construction rather than by scheduler luck.
		ccfg.SyncRounds = true
	}
	ccfg.Observer = snk.observer()
	ccfg.Out = w
	if tel != nil {
		ccfg.Telemetry = tel.Hist
	}
	sum := rrfd.ChaosRun(ccfg)

	if err := snk.finish(w); err != nil {
		return err
	}
	if cfg.perfetto != "" {
		if len(sum.Violations) == 0 {
			fmt.Fprintf(w, "no violation to trace: %s not written\n", cfg.perfetto)
		} else {
			// Replay the first violation's minimized scenario sequentially
			// under a tracer: the Perfetto file shows the counterexample
			// as a causal diagram, byte-identical across reruns.
			v := sum.Violations[0]
			tracer := rrfd.NewTracer()
			replay := ccfg
			replay.Observer = tracer
			if err := rrfd.ChaosReplay(replay, v); err != nil {
				return fmt.Errorf("replay violation: %w", err)
			}
			if err := tracer.ExportFile(cfg.perfetto); err != nil {
				return fmt.Errorf("write perfetto trace: %w", err)
			}
			fmt.Fprintf(w, "perfetto trace of violation (run %d, minimized plan) written to %s\n", v.Run, cfg.perfetto)
		}
	}
	if !sum.Ok() {
		return fmt.Errorf("chaos: %d safety violation(s) in %d runs", len(sum.Violations), sum.Runs)
	}
	return nil
}

// chaosConfig maps the chaos flags onto a campaign config; the caller
// fills in the sinks (Observer, Out, Telemetry).
func chaosConfig(cfg config) rrfd.ChaosConfig {
	return rrfd.ChaosConfig{
		N: cfg.n, F: cfg.f, K: cfg.k,
		Rounds:        cfg.rounds,
		Runs:          cfg.runs,
		Seed:          cfg.seed,
		DropRate:      cfg.drop,
		DupRate:       cfg.dup,
		DelayRate:     cfg.delay,
		MaxDelay:      cfg.delaymax,
		OmitRate:      cfg.omit,
		PartitionRate: cfg.partition,
		MaxCrashes:    cfg.crashes,
		WatchdogSteps: cfg.watchdog,
		QuorumBug:     cfg.bug,
		Workers:       cfg.workers,
	}
}

// runChaosRecover executes the crash-and-recover campaign: every run
// crashes at least one process, usually restarts it from its durable
// journal, and audits the outcome's safety.
func runChaosRecover(cfg config, tel *rrfd.Telemetry, w io.Writer) error {
	snk, err := openSinks(cfg, tel)
	if err != nil {
		return err
	}
	defer snk.closeFile()

	rcfg := rrfd.RecoverChaosConfig{
		N: cfg.n, F: cfg.f,
		Rounds:        cfg.rounds,
		Runs:          cfg.runs,
		Seed:          cfg.seed,
		DropRate:      cfg.drop,
		DelayRate:     cfg.delay,
		MaxCrashes:    cfg.crashes,
		WatchdogSteps: cfg.watchdog,
		AmnesiaBug:    cfg.bug,
		Workers:       cfg.workers,
		Observer:      snk.observer(),
		Out:           w,
	}
	if tel != nil {
		rcfg.Telemetry = tel.Hist
	}
	sum := rrfd.RecoverChaosRun(rcfg)

	if err := snk.finish(w); err != nil {
		return err
	}
	if !sum.Ok() {
		return fmt.Errorf("chaos-recover: %d safety violation(s) in %d runs", len(sum.Violations), sum.Runs)
	}
	return nil
}

// runChaosServe executes the kill-and-recover agreement-service campaign:
// seeded client load over a loopback cluster, one node killed at a
// planted acknowledgement count, its journal audited, a restart, and a
// full idempotent replay of the load.
func runChaosServe(cfg config, tel *rrfd.Telemetry, w io.Writer) error {
	snk, err := openSinks(cfg, tel) // validate refused -events: metrics only
	if err != nil {
		return err
	}
	scfg := rrfd.ServeChaosConfig{
		N: cfg.n, F: cfg.f, K: cfg.k,
		Seed:     cfg.seed,
		Bug:      cfg.bug,
		Observer: snk.observer(),
		Out:      w,
	}
	if tel != nil {
		scfg.Telemetry = tel.Hist
	}
	sum, err := rrfd.RunServeChaos(scfg)
	if err != nil {
		return err
	}
	if err := snk.finish(w); err != nil {
		return err
	}
	if !sum.Ok() {
		return fmt.Errorf("chaos-serve: %d service violation(s)", len(sum.Violations))
	}
	return nil
}

// validate rejects flag combinations that would silently do nothing — in
// particular -o (and -trace) with trace recording disabled.
func validate(cfg config) error {
	if cfg.noTrace && cfg.outFile != "" {
		return fmt.Errorf("-o %s requires trace recording: drop -notrace", cfg.outFile)
	}
	if cfg.noTrace && cfg.dumpTrace {
		return fmt.Errorf("-trace requires trace recording: drop -notrace")
	}
	if cfg.n <= 0 {
		return fmt.Errorf("invalid process count %d", cfg.n)
	}
	if cfg.workers < 0 {
		return fmt.Errorf("invalid worker count %d", cfg.workers)
	}
	if cfg.substrate != "" && cfg.substrate != "virtual" && cfg.substrate != "tcp" {
		return fmt.Errorf("unknown substrate %q: virtual or tcp", cfg.substrate)
	}
	if cfg.substrate == "tcp" {
		if cfg.mc || cfg.chaos || cfg.chaosRecover || cfg.chaosServe {
			return fmt.Errorf("-substrate tcp is its own mode: drop -mc/-chaos/-chaos-recover/-chaos-serve")
		}
		if cfg.ckptDir != "" || cfg.resumeDir != "" {
			return fmt.Errorf("-substrate tcp crashes real processes, not journaled runs: drop -checkpoint/-resume")
		}
		if cfg.dumpTrace || cfg.outFile != "" || cfg.perfetto != "" || cfg.eventsFile != "" {
			return fmt.Errorf("-substrate tcp spans processes and records no single trace: drop -trace/-o/-perfetto/-events")
		}
		if cfg.metrics || cfg.telemetry != "" {
			return fmt.Errorf("-substrate tcp runs n separate processes: drop -metrics/-telemetry")
		}
	}
	if cfg.model != "" {
		if cfg.chaosRecover || cfg.chaosServe {
			return fmt.Errorf("-model drives plain, -chaos and -mc runs: drop -chaos-recover/-chaos-serve")
		}
		if cfg.substrate == "tcp" {
			return fmt.Errorf("-model compiles virtual-substrate adversaries: drop -substrate tcp")
		}
		if cfg.chaos && cfg.crashes > 0 {
			return fmt.Errorf("-chaos -model runs lock-step, the compiled plan the only author of suspicions: drop -crashes")
		}
	}
	if cfg.workers > 1 && !cfg.chaos && !cfg.chaosRecover && !cfg.mc {
		return fmt.Errorf("-workers parallelizes campaign runs: add -chaos, -chaos-recover or -mc")
	}
	if cfg.bug && !cfg.chaos && !cfg.chaosRecover && !cfg.chaosServe && !cfg.mc {
		return fmt.Errorf("-bug plants a bug for a campaign to catch: add -chaos, -chaos-recover, -chaos-serve or -mc")
	}
	if cfg.mc && (cfg.chaos || cfg.chaosRecover || cfg.chaosServe) {
		return fmt.Errorf("-mc is its own mode: drop -chaos/-chaos-recover/-chaos-serve")
	}
	if cfg.mc && (cfg.dumpTrace || cfg.outFile != "") {
		return fmt.Errorf("-mc runs many executions and records no single trace: drop -trace/-o")
	}
	if cfg.mc && (cfg.ckptDir != "" || cfg.resumeDir != "") {
		return fmt.Errorf("-mc re-executes schedules from scratch: drop -checkpoint/-resume")
	}
	if cfg.mcReplay != "" && !cfg.mc {
		return fmt.Errorf("-mc-replay replays a model-checking schedule: add -mc")
	}
	if cfg.perfetto != "" && cfg.mc && cfg.mcReplay == "" {
		return fmt.Errorf("-perfetto traces one execution: with -mc add -mc-replay")
	}
	if cfg.perfetto != "" && cfg.chaosRecover {
		return fmt.Errorf("-perfetto does not trace recovery campaigns: drop -chaos-recover")
	}
	if cfg.chaos && (cfg.dumpTrace || cfg.outFile != "") {
		return fmt.Errorf("-chaos runs many executions and records no single trace: drop -trace/-o")
	}
	if cfg.chaosRecover && (cfg.dumpTrace || cfg.outFile != "") {
		return fmt.Errorf("-chaos-recover runs many executions and records no single trace: drop -trace/-o")
	}
	if cfg.chaos && cfg.chaosRecover {
		return fmt.Errorf("pick one of -chaos and -chaos-recover")
	}
	if cfg.chaosServe && (cfg.chaos || cfg.chaosRecover) {
		return fmt.Errorf("-chaos-serve is its own mode: drop -chaos/-chaos-recover")
	}
	if cfg.chaosServe && (cfg.dumpTrace || cfg.outFile != "" || cfg.perfetto != "" || cfg.eventsFile != "") {
		return fmt.Errorf("-chaos-serve spans real sockets and records no execution trace: drop -trace/-o/-perfetto/-events")
	}
	if cfg.chaosServe && (cfg.ckptDir != "" || cfg.resumeDir != "") {
		return fmt.Errorf("-chaos-serve manages its own journals: drop -checkpoint/-resume")
	}
	if cfg.killAfter > 0 && cfg.ckptDir == "" && cfg.resumeDir == "" {
		return fmt.Errorf("-kill-after suspends a journaled run: add -checkpoint DIR")
	}
	if cfg.resumeDir != "" && cfg.ckptDir != "" {
		return fmt.Errorf("-resume continues the existing journal in place: drop -checkpoint")
	}
	if (cfg.ckptDir != "" || cfg.resumeDir != "") && (cfg.chaos || cfg.chaosRecover) {
		return fmt.Errorf("campaign modes manage their own journals: drop -checkpoint/-resume")
	}
	if (cfg.ckptDir != "" || cfg.resumeDir != "") && cfg.alg == "none" {
		return fmt.Errorf("checkpointing journals an algorithm run: use an -alg other than none")
	}
	if cfg.f < 0 {
		return fmt.Errorf("invalid fault budget %d: -f must be >= 0", cfg.f)
	}
	if cfg.k < 1 {
		return fmt.Errorf("invalid agreement parameter %d: -k must be >= 1", cfg.k)
	}
	return nil
}

// sourceLabel names what produced a collected trace: the bespoke -system
// adversary or the compiled -model expression.
func sourceLabel(cfg config) string {
	if cfg.model != "" {
		return fmt.Sprintf("model %q", cfg.model)
	}
	return fmt.Sprintf("system %q", cfg.system)
}

func report(w io.Writer, pred rrfd.Predicate, tr *rrfd.Trace) error {
	if err := pred.Check(tr); err != nil {
		return fmt.Errorf("model predicate: %w", err)
	}
	fmt.Fprintf(w, "model predicate %q: satisfied\n", pred.Name)
	return nil
}

func writeTrace(w io.Writer, path string, tr *rrfd.Trace) error {
	if path == "" {
		return nil
	}
	if tr == nil {
		// Unreachable given validate, but guard the invariant anyway: a
		// requested trace file must never be silently skipped.
		return fmt.Errorf("no trace recorded, cannot write %s", path)
	}
	b, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(w, "trace written to %s\n", path)
	return nil
}
