// Command experiments regenerates every table in EXPERIMENTS.md: one
// experiment per theorem/construction of the paper (see DESIGN.md §5).
//
// Usage:
//
//	go run ./cmd/experiments            # full sweeps (seconds to minutes)
//	go run ./cmd/experiments -quick     # shrunken sweeps
//	go run ./cmd/experiments -only E13  # a single experiment
//	go run ./cmd/experiments -metrics   # engine metric summary per experiment
//	go run ./cmd/experiments -workers 8 # fan seed sweeps over 8 workers
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/par"
)

func main() {
	quick := flag.Bool("quick", false, "run shrunken sweeps")
	only := flag.String("only", "", "run only the experiment with this ID (e.g. E07)")
	metrics := flag.Bool("metrics", false, "print an engine metrics summary after each experiment")
	workers := flag.Int("workers", 0, "workers for experiment seed sweeps (0 = one per CPU, 1 = sequential)")
	telemetryAddr := flag.String("telemetry", "", "serve /metrics, /snapshot and /debug/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "invalid -workers %d\n", *workers)
		os.Exit(1)
	}
	exp.SetWorkers(*workers)

	if err := run(*quick, *only, *metrics, *telemetryAddr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(quick bool, only string, metrics bool, telemetryAddr string) error {
	mode := "full"
	if quick {
		mode = "quick"
	}
	fmt.Printf("RRFD paper experiments (%s mode)\n", mode)
	fmt.Printf("Gafni, \"Round-by-Round Fault Detectors: Unifying Synchrony and Asynchrony\", PODC 1998\n\n")

	// With -metrics or -telemetry, every engine execution inside every
	// experiment reports to one shared Metrics via the process-wide default
	// observer — no experiment needs to know it is being measured — and the
	// seed-sweep worker pool meters task latency into the same registry.
	var m *obs.Metrics
	if metrics || telemetryAddr != "" {
		tel := obs.NewMetrics()
		core.SetDefaultObserver(tel)
		defer core.SetDefaultObserver(nil)
		par.SetMeter(&par.Meter{
			TaskNS:     tel.Hist().Get("par_task_ns"),
			QueueDepth: tel.Hist().Get("par_queue_depth"),
		})
		defer par.SetMeter(nil)
		if metrics {
			m = tel
		}
		if telemetryAddr != "" {
			srv, err := obs.ServeTelemetry(telemetryAddr, tel)
			if err != nil {
				return fmt.Errorf("telemetry listener: %w", err)
			}
			defer srv.Close()
			fmt.Printf("telemetry listening on http://%s/ (/metrics, /snapshot, /debug/pprof/)\n\n", srv.Addr())
		}
	}

	ran := 0
	for _, e := range exp.All() {
		if only != "" && !strings.EqualFold(e.ID, only) {
			continue
		}
		start := time.Now()
		table, err := e.Run(quick)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		table.Fprint(os.Stdout)
		fmt.Printf("  (%s in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
		if m != nil {
			printSummary(e.ID, m.Snapshot())
			m.Reset()
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matches %q", only)
	}
	return nil
}

// printSummary renders one experiment's engine-level metrics as a single
// compact line: how many executions it drove, their shape, and where the
// engine spent its time.
func printSummary(id string, s obs.Snapshot) {
	if s.Runs == 0 {
		fmt.Printf("  %s metrics: no engine executions (substrate-level experiment)\n", id)
		return
	}
	fmt.Printf("  %s metrics: runs=%d rounds=%d suspicions=%d delivered=%d decisions=%d errors=%d plan=%.0fns/call deliver=%.0fns/round\n",
		id, s.Runs, s.Rounds, s.SuspicionsTotal, s.MessagesDelivered, s.Decisions, s.RunErrors,
		s.PhaseMeanNanos["plan"], s.PhaseMeanNanos["deliver"])
}
