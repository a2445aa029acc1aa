// Command rrfdsim runs one configurable RRFD execution — pick a system
// (adversary), an algorithm, and parameters; it prints the decisions, the
// round count, optionally the full trace, and checks the system's model
// predicate on the recorded execution — or, named by its first argument,
// one of the modes chaos, chaos-recover, chaos-serve, mc and tcp. Each
// mode defines only the flags it reads (`rrfdsim chaos -h` lists them).
//
// Observability: -metrics prints a JSON metrics snapshot (rounds to
// decision, suspicions, D-set size histogram, per-phase latency
// histograms), -events FILE streams the execution as JSONL structured
// events, -perfetto FILE writes the execution as a causal Chrome/Perfetto
// trace (round/phase spans, Emit→Deliver message flows, suspicion and
// decide instants — under chaos it traces the first violation's minimized
// replay, under mc the -replay schedule), and -telemetry ADDR serves
// /metrics (Prometheus text), /snapshot (JSON) and /debug/pprof live while
// the process runs.
//
// Robustness: chaos runs the randomized fault-injection campaign — N
// seeded executions of async k-set agreement over reliable links on a
// lossy substrate, each run under a random fault plan (drop, duplicate,
// delay, send-omission, healing partitions, crashes), each checked against
// validity, k-agreement and the eq. (3) trace predicate. On a violation it
// prints the scheduler seed, the fault plan and a delta-debugged minimal
// plan, and exits non-zero.
//
// Real network: tcp runs the same round protocol as one OS process per pid
// over loopback TCP (each child, the unlisted tcp-child mode, inherits its
// pre-bound listener), kills the highest-pid child once the mesh is up,
// restarts it as incarnation 2 on the same listener, and audits the
// collected decisions for validity and k-agreement — survivors must
// degrade the dead peer into D(i,r) suspicions via the wall-clock
// watchdog, and the restarted process must re-enter and terminate instead
// of deadlocking. Under tcp, -watchdog is in milliseconds.
//
// Agreement service: chaos-serve runs the kill-and-recover service
// campaign — an in-process loopback cluster of rrfdserve-style nodes
// under concurrent seeded client load, with one node killed at a planted
// acknowledgement count mid-batch, its journal audited offline (no
// acknowledged decision lost, none duplicated), the node restarted from
// the journal, and the identical load replayed with reused request IDs
// (no retry may double-decide, k-agreement across all clients). -bug
// plants the ack-before-journal inversion the audit must catch.
//
// Model checking: mc runs the systematic explorer — every adversary
// schedule the -system or -model expression allows over a small system
// (n ≤ 4, 3 with kset) is executed and checked against validity and
// k-agreement, with state-hash pruning and symmetry/sleep-set reduction.
// -depth bounds enumeration with seeded random frontier sampling; a
// violation prints a shrunk counterexample replayable with -replay, and
// exits non-zero. -bug plants a wrong-quorum-size decision rule (-alg
// qkset) the checker demonstrably catches.
//
// Model algebra: -model takes a predicate expression over the per-round
// suspicion sets D(i,r) — or a name from the derived-model catalog
// (internal/hoalg) — and compiles it into whichever artifact the mode
// needs: a plain run samples its oracle and checks its predicate, mc
// enumerates its schedules branch by branch with the predicate as a trace
// property, chaos pins the campaign to its compiled fault plan under
// lock-step rounds.
//
// Crash recovery: -checkpoint DIR journals the execution to a write-ahead
// log; -kill-after R deterministically kills the run at a round boundary;
// -resume DIR reconstructs the journaled run (same flags = same oracle and
// algorithm) and continues it to completion. chaos-recover runs the
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
//	go run ./cmd/rrfdsim tcp -n 4 -f 1 -k 2 -rounds 3
//	go run ./cmd/rrfdsim -model sync-crash -n 3 -f 1 -alg none -rounds 3
//	go run ./cmd/rrfdsim -model 'selftrust & atmost(1)' -n 3 -f 1 -alg none -rounds 3
//	go run ./cmd/rrfdsim mc -model 'kset(2) | perround(1)' -n 3 -f 1 -k 2 -alg qkset
//	go run ./cmd/rrfdsim chaos -model async -n 5 -f 1 -k 2 -runs 20 -rounds 3
//	go run ./cmd/rrfdsim mc -system async -n 3 -f 1 -alg qkset
//	go run ./cmd/rrfdsim mc -system async -n 3 -f 1 -alg qkset -bug -workers 4
//	go run ./cmd/rrfdsim mc -system async -n 3 -f 1 -alg qkset -bug -replay c1:4
//	go run ./cmd/rrfdsim mc -system omission -n 3 -f 1 -alg floodmin -rounds 3
//	go run ./cmd/rrfdsim mc -system crash -n 3 -f 1 -alg floodmin -depth 2
//	go run ./cmd/rrfdsim chaos -n 6 -f 2 -k 3 -runs 200 -drop 0.3 -seed 7
//	go run ./cmd/rrfdsim chaos -runs 500 -workers 8   # parallel, same output
//	go run ./cmd/rrfdsim chaos -runs 50 -drop 0.5 -partition 0.5 -crashes 2 -metrics
//	go run ./cmd/rrfdsim -system crash -alg floodmin -checkpoint /tmp/ck -kill-after 2
//	go run ./cmd/rrfdsim -system crash -alg floodmin -resume /tmp/ck
//	go run ./cmd/rrfdsim chaos-recover -n 5 -f 1 -runs 100 -seed 42
//	go run ./cmd/rrfdsim chaos-recover -runs 60 -bug
//	go run ./cmd/rrfdsim chaos-serve -n 3 -f 1 -seed 7
//	go run ./cmd/rrfdsim chaos-serve -n 3 -f 1 -seed 7 -bug   # must fail
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/agreement"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/predicate"
	"repro/internal/wal"
)

// config is one parsed invocation, so run is unit-testable without a flag
// set: the mode, and the settings of the flags it defines (the rest keep
// their defaults, unread).
type config struct {
	// mode is the first argument: "" (one execution), chaos,
	// chaos-recover, chaos-serve, mc, tcp or tcp-child.
	mode string

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
	ckptDir   string
	killAfter int
	resumeDir string

	// model-checking flags
	mcMax     int
	mcDepth   int
	mcSamples int
	mcReplay  string

	// tcp and tcp-child flags
	netMe          int
	netIncarnation int
	netLinger      int
	netAddrs       string

	// campaign flags
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

// mode is one way to run rrfdsim: the word that selects it, what it does,
// and the flags it defines — the ones it reads.
type mode struct{ name, about, flags string }

// modes lists them in the order -h shows them. -h leaves out the last,
// tcp-child: one mesh process of a tcp run, which tcp spawns.
var modes = []mode{
	{"", "one execution of -alg under -system or -model, checked against the model predicate",
		"system alg model n f k rounds seed trace notrace o checkpoint kill-after resume metrics events perfetto telemetry"},
	{"chaos", "randomized fault-injection campaign: async k-set agreement over lossy links",
		"model n f k rounds seed runs workers bug drop dup delay delaymax omit partition crashes watchdog metrics events perfetto telemetry"},
	{"chaos-recover", "crash-and-recover campaign: restarts from durable journals, safety audit",
		"n f rounds seed runs workers bug drop delay crashes watchdog metrics events telemetry"},
	{"chaos-serve", "kill-and-recover campaign of the agreement service under client load",
		"n f k seed bug metrics telemetry"},
	{"mc", "model checker: every adversary schedule of a small system",
		"system alg model n f k rounds seed workers bug max depth samples replay metrics events perfetto telemetry"},
	{"tcp", "one OS process per pid over loopback TCP, the highest killed and restarted",
		"n f k rounds seed watchdog linger"},
	{"tcp-child", "one mesh process of tcp", "n f rounds seed watchdog linger me incarnation addrs"},
}

// define binds every flag rrfdsim has to its field of c and sets the field
// to the flag's default; parse hands each mode the ones it lists.
func define(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.system, "system", "kset", "system: omission|crash|chain|async|sharedmem|snapshot|kset|identical|s|benign")
	fs.StringVar(&c.alg, "alg", "kset", "algorithm: kset|floodmin|floodset|coordinator|none, or qkset (the n−f quorum-min rule; mc only)")
	fs.StringVar(&c.model, "model", "", "model expression or catalog name (internal/hoalg): overrides -system in a plain run, drives mc's enumeration branch by branch, and fixes chaos's fault plan")
	fs.IntVar(&c.n, "n", 8, "number of processes")
	fs.IntVar(&c.f, "f", 2, "fault budget")
	fs.IntVar(&c.k, "k", 2, "agreement parameter k")
	fs.IntVar(&c.rounds, "rounds", 0, "rounds for -alg none / floodmin override (0 = default)")
	fs.Int64Var(&c.seed, "seed", 1, "adversary seed")
	fs.BoolVar(&c.dumpTrace, "trace", false, "dump the execution trace")
	fs.BoolVar(&c.noTrace, "notrace", false, "disable trace recording (benchmarking; incompatible with -o and -trace)")
	fs.StringVar(&c.outFile, "o", "", "write the execution trace as JSON to this file")
	fs.BoolVar(&c.metrics, "metrics", false, "print a JSON metrics snapshot after the run")
	fs.StringVar(&c.eventsFile, "events", "", "stream structured JSONL events to this file")
	fs.StringVar(&c.perfetto, "perfetto", "", "write the execution as Chrome/Perfetto trace-event JSON to this file (chaos: the first violation's replay; mc: requires -replay)")
	fs.StringVar(&c.telemetry, "telemetry", "", "serve /metrics, /snapshot and /debug/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&c.ckptDir, "checkpoint", "", "journal the execution to a WAL in this directory (resumable with -resume)")
	fs.IntVar(&c.killAfter, "kill-after", 0, "kill the run after this round completes and is journaled (requires -checkpoint)")
	fs.StringVar(&c.resumeDir, "resume", "", "resume a journaled run from this directory (pass the original system/alg flags)")
	fs.IntVar(&c.mcMax, "max", 0, "schedule budget (0 = 1<<20)")
	fs.IntVar(&c.mcDepth, "depth", 0, "bound enumeration to this choice depth, sample beyond it (0 = unbounded)")
	fs.IntVar(&c.mcSamples, "samples", 0, "random completions per frontier node when -depth is set (0 = 8)")
	fs.StringVar(&c.mcReplay, "replay", "", "replay one recorded counterexample choice string (e.g. c1:4)")
	fs.IntVar(&c.netMe, "me", 0, "this mesh process's pid")
	fs.IntVar(&c.netIncarnation, "incarnation", 1, "this mesh process's incarnation")
	fs.IntVar(&c.netLinger, "linger", 0, "post-decision linger in ms so slower peers still hear the last round (0 = 250)")
	fs.StringVar(&c.netAddrs, "addrs", "", "comma-separated mesh addresses")
	fs.IntVar(&c.workers, "workers", 0, "concurrent runs (0 = one per CPU, 1 = sequential; output is identical either way)")
	fs.IntVar(&c.runs, "runs", 0, "number of randomized executions (0 = 100)")
	fs.Float64Var(&c.drop, "drop", 0, "per-message drop-rate bound (0 with all other rates 0 = 0.3)")
	fs.Float64Var(&c.dup, "dup", 0, "per-message duplication-rate bound")
	fs.Float64Var(&c.delay, "delay", 0, "per-message delay-rate bound")
	fs.IntVar(&c.delaymax, "delaymax", 0, "max injected delay in steps (0 = 16)")
	fs.Float64Var(&c.omit, "omit", 0, "send-omission rate bound for up to f faulty senders")
	fs.Float64Var(&c.partition, "partition", 0, "per-run probability of a healing partition")
	fs.IntVar(&c.crashes, "crashes", 0, "max crash failures per run (clamped to f)")
	fs.IntVar(&c.watchdog, "watchdog", 0, "round watchdog in steps, in milliseconds under tcp (0 = default)")
	fs.BoolVar(&c.bug, "bug", false, "plant the bug the mode must catch: sub-quorum decision (chaos), amnesia (chaos-recover), ack-before-journal (chaos-serve) or the wrong quorum rule (mc -alg qkset)")
}

// parse reads one invocation: the mode word, when the first argument is
// one, then the flags that mode defines. Errors and -h print to out.
func parse(args []string, out io.Writer) (config, error) {
	var cfg config
	all := flag.NewFlagSet("", flag.ContinueOnError)
	define(all, &cfg)

	m := modes[0]
	if len(args) > 0 {
		for _, mm := range modes[1:] {
			if args[0] == mm.name {
				m, args = mm, args[1:]
				break
			}
		}
	}
	cfg.mode = m.name
	fs := flag.NewFlagSet("rrfdsim "+m.name, flag.ContinueOnError)
	fs.SetOutput(out)
	for _, name := range strings.Fields(m.flags) {
		f := all.Lookup(name)
		fs.Var(f.Value, f.Name, f.Usage)
	}
	fs.Usage = func() { usage(out, m, fs) }
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		err := fmt.Errorf("unexpected argument %q", fs.Arg(0))
		fmt.Fprintln(out, err)
		fs.Usage()
		return cfg, err
	}
	return cfg, nil
}

// usage lists the modes, then the flags of mode m.
func usage(out io.Writer, m mode, fs *flag.FlagSet) {
	fmt.Fprintln(out, "usage: rrfdsim [mode] [flags]; rrfdsim MODE -h lists a mode's flags")
	for _, mm := range modes[:len(modes)-1] {
		fmt.Fprintf(out, "  %-16q %s\n", mm.name, mm.about)
	}
	fmt.Fprintf(out, "flags of %q:\n", m.name)
	fs.PrintDefaults()
}

func main() {
	cfg, err := parse(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
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
	if err := validate(cfg); err != nil {
		return err
	}

	// One Telemetry per process: its Metrics joins every mode's observer
	// chain, its histogram registry receives the non-observer meters
	// (chaos per-run wall time, par task latency / queue depth, mc
	// schedule rate), and the optional endpoint serves both live.
	var tel *obs.Metrics
	if cfg.metrics || cfg.telemetry != "" {
		tel = obs.NewMetrics()
		par.SetMeter(&par.Meter{
			TaskNS:     tel.Hist().Get("par_task_ns"),
			QueueDepth: tel.Hist().Get("par_queue_depth"),
		})
		defer par.SetMeter(nil)
	}
	if cfg.telemetry != "" {
		srv, err := obs.ServeTelemetry(cfg.telemetry, tel)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(w, "telemetry listening on http://%s/ (/metrics, /snapshot, /debug/pprof/)\n", srv.Addr())
	}

	switch cfg.mode {
	case "mc":
		return runMC(cfg, tel, w)
	case "chaos":
		return runChaos(cfg, tel, w)
	case "chaos-recover":
		return runChaosRecover(cfg, tel, w)
	case "chaos-serve":
		return runChaosServe(cfg, tel, w)
	case "tcp":
		return runNetParent(cfg, w)
	case "tcp-child":
		return runNetChild(cfg, w)
	}

	// Observability wiring: metrics, the JSONL event sink and the causal
	// tracer all hang off the same observer fan-out.
	snk, err := openSinks(cfg, tel)
	if err != nil {
		return err
	}
	defer snk.closeFile()
	var tracer *trace.Tracer
	if cfg.perfetto != "" {
		tracer = trace.New()
	}
	observer := snk.observer(tracer)

	m, err := resolve(cfg, observer)
	if err != nil {
		return err
	}
	n, f, k, seed := cfg.n, cfg.f, cfg.k, cfg.seed

	var opts []core.Option
	if observer != nil {
		opts = append(opts, core.WithObserver(observer))
	}
	if cfg.noTrace {
		opts = append(opts, core.WithoutTrace())
	}
	if dir := cfg.ckptDir; dir != "" || cfg.resumeDir != "" {
		// On resume, pass the same checkpoint options so the continuation
		// keeps journaling to the log with the original durability policy.
		if dir == "" {
			dir = cfg.resumeDir
		}
		opts = append(opts, core.WithCheckpointing(dir, core.CheckpointOptions{Sync: wal.SyncAlways}))
	}
	if cfg.killAfter > 0 {
		opts = append(opts, core.WithHaltAfterRound(cfg.killAfter))
	}

	finish := func(tr *core.Trace) error {
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

	inputs := make([]core.Value, n)
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
		tr, err := core.CollectTrace(n, m.rounds, m.oracle, opts...)
		if err != nil {
			return failed(err)
		}
		fmt.Fprintf(w, "collected %d rounds from %s\n", tr.Len(), sourceLabel(cfg))
		if cfg.dumpTrace {
			fmt.Fprint(w, tr.String())
		}
		return finish(tr)
	}

	var res *core.Result
	if cfg.resumeDir != "" {
		res, err = core.Resume(cfg.resumeDir, m.factory, m.oracle, opts...)
	} else {
		res, err = core.Run(n, inputs, m.factory, m.oracle, opts...)
	}
	var halt *core.HaltError
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
	for p := core.PID(0); int(p) < n; p++ {
		if v, ok := res.Outputs[p]; ok {
			fmt.Fprintf(w, "  p%-3d → %-6v (round %d)\n", p, v, res.DecidedAt[p])
		} else {
			fmt.Fprintf(w, "  p%-3d → (no decision)\n", p)
		}
	}
	if err := agreement.Validate(res, inputs, m.bound, 0); err != nil {
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
func runChaos(cfg config, tel *obs.Metrics, w io.Writer) error {
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
		expr, err := hoalg.Resolve(cfg.model, hoalg.Params{N: cfg.n, F: cfg.f, K: cfg.k, Stab: modelStab})
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
		ccfg.Telemetry = tel.Hist()
	}
	sum := chaos.Run(ccfg)

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
			tracer := trace.New()
			replay := ccfg
			replay.Observer = tracer
			if _, _, _, err := chaos.Execute(replay, v.SchedSeed, v.MinPlan, v.Crashes); err != nil {
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
func chaosConfig(cfg config) chaos.Config {
	return chaos.Config{
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
func runChaosRecover(cfg config, tel *obs.Metrics, w io.Writer) error {
	snk, err := openSinks(cfg, tel)
	if err != nil {
		return err
	}
	defer snk.closeFile()

	rcfg := chaos.RecoverConfig{
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
		rcfg.Telemetry = tel.Hist()
	}
	sum := chaos.RunRecover(rcfg)

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
func runChaosServe(cfg config, tel *obs.Metrics, w io.Writer) error {
	snk, err := openSinks(cfg, tel) // chaos-serve has no -events: metrics only
	if err != nil {
		return err
	}
	scfg := chaos.ServeConfig{
		N: cfg.n, F: cfg.f, K: cfg.k,
		Seed:     cfg.seed,
		Bug:      cfg.bug,
		Observer: snk.observer(),
		Out:      w,
	}
	if tel != nil {
		scfg.Telemetry = tel.Hist()
	}
	sum, err := chaos.RunServe(scfg)
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

// validate rejects settings of one mode that would silently do nothing or
// describe no system — -o (and -trace) with trace recording disabled, say.
// A flag of another mode never gets here: the mode's flag set refuses it.
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
	if cfg.model != "" && cfg.crashes > 0 {
		return fmt.Errorf("chaos -model runs lock-step, the compiled plan the only author of suspicions: drop -crashes")
	}
	if cfg.mode == "mc" && cfg.perfetto != "" && cfg.mcReplay == "" {
		return fmt.Errorf("-perfetto traces one execution: add -replay")
	}
	if cfg.killAfter > 0 && cfg.ckptDir == "" && cfg.resumeDir == "" {
		return fmt.Errorf("-kill-after suspends a journaled run: add -checkpoint DIR")
	}
	if cfg.resumeDir != "" && cfg.ckptDir != "" {
		return fmt.Errorf("-resume continues the existing journal in place: drop -checkpoint")
	}
	if (cfg.ckptDir != "" || cfg.resumeDir != "") && cfg.alg == "none" {
		return fmt.Errorf("checkpointing journals an algorithm run: use an -alg other than none")
	}
	if cfg.f < 0 {
		return fmt.Errorf("invalid fault budget %d: -f must be >= 0", cfg.f)
	}
	if cfg.f == 0 && strings.HasPrefix(cfg.mode, "chaos") {
		return fmt.Errorf("%s exists to inject faults, and -f 0 allows none: use -f >= 1", cfg.mode)
	}
	if cfg.f >= cfg.n && strings.HasPrefix(cfg.mode, "chaos") {
		return fmt.Errorf("%s tolerates f < n faults, and -f %d with -n %d leaves no process to survive them", cfg.mode, cfg.f, cfg.n)
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

func report(w io.Writer, pred predicate.P, tr *core.Trace) error {
	if err := pred.Check(tr); err != nil {
		return fmt.Errorf("model predicate: %w", err)
	}
	fmt.Fprintf(w, "model predicate %q: satisfied\n", pred.Name)
	return nil
}

func writeTrace(w io.Writer, path string, tr *core.Trace) error {
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
