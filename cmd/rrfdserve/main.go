// Command rrfdserve runs one agreement-service node: it joins a TCP mesh
// of n peers, one per -mesh address, accepts client submissions on a second listener, runs one
// k-set agreement instance per distinct instance ID, and journals every
// proposal and decision to a write-ahead log before acknowledging — kill
// the process at any point and the restarted incarnation replays the
// journal, so no acknowledged decision is ever lost and a retried request
// ID is answered from the decision table instead of re-deciding.
//
// Robustness controls: -max-inflight bounds the concurrent-instance
// table (excess submits are shed with a structured overload answer),
// -request-timeout degrades a slow instance into an abstain-and-report,
// and -instance-ttl evicts instances that cannot gather a quorum so the
// table drains and admission reopens.
//
// -telemetry ADDR serves /metrics, /snapshot and /debug/pprof live:
// request/decide latency histograms, in-flight depth, shed and abstain
// counters.
//
// Usage:
//
//	rrfdserve -me 0 -mesh :7000,:7001,:7002 -listen :8000 -wal /var/lib/rrfd/n0
//	rrfdserve -me 1 -mesh :7000,:7001,:7002 -listen :8001 -wal /var/lib/rrfd/n1 -sync always
//	rrfdserve -me 0 -mesh 127.0.0.1:0 -listen 127.0.0.1:0 -wal /tmp/solo   # single node
//
// SIGINT / SIGTERM shuts the node down cleanly; the journal makes any
// less polite exit equally safe.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wal"
)

type config struct {
	me, f       int
	mesh        string
	listen      string
	walDir      string
	sync        string
	maxInflight int
	reqTimeout  time.Duration
	instTTL     time.Duration
	seed        int64
	telemetry   string
}

func main() {
	var cfg config
	flag.IntVar(&cfg.me, "me", 0, "this node's pid (index into -mesh)")
	flag.IntVar(&cfg.f, "f", 0, "fault budget; decisions gather n-f proposals")
	flag.StringVar(&cfg.mesh, "mesh", "", "comma-separated mesh addresses, one per pid")
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:0", "client-facing listen address")
	flag.StringVar(&cfg.walDir, "wal", "", "write-ahead-log directory (required)")
	flag.StringVar(&cfg.sync, "sync", "always", "journal fsync policy: always (an ack implies durability) | never (survives process death, not power loss)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "admission bound on concurrent instances (0 = 1024)")
	flag.DurationVar(&cfg.reqTimeout, "request-timeout", 0, "server-side request deadline before abstain-and-report (0 = 2s)")
	flag.DurationVar(&cfg.instTTL, "instance-ttl", 0, "evict instances that cannot gather a quorum after this long (0 = 2x request timeout)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the mesh's redial jitter")
	flag.StringVar(&cfg.telemetry, "telemetry", "", "serve /metrics, /snapshot and /debug/pprof on this address")
	flag.Parse()

	srv, cleanup, err := start(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer cleanup()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// start validates flags and brings the node up; main only adds signal
// handling, so tests drive the whole surface through here.
func start(cfg config, w io.Writer) (*serve.Server, func(), error) {
	nop := func() {}
	if cfg.walDir == "" {
		return nil, nop, fmt.Errorf("-wal DIR is required: the journal is what makes acknowledgements durable")
	}
	addrs := strings.Split(cfg.mesh, ",")
	if cfg.mesh == "" {
		return nil, nop, fmt.Errorf("-mesh is required: comma-separated addresses, one per pid")
	}
	n := len(addrs)
	if cfg.me < 0 || cfg.me >= n {
		return nil, nop, fmt.Errorf("-me %d out of range [0,%d)", cfg.me, n)
	}
	if cfg.f < 0 || cfg.f >= n {
		return nil, nop, fmt.Errorf("-f %d out of range [0,%d)", cfg.f, n)
	}
	var sync wal.SyncMode
	switch cfg.sync {
	case "always":
		sync = wal.SyncAlways
	case "never":
		sync = wal.SyncNever
	default:
		return nil, nop, fmt.Errorf("unknown -sync %q: always or never", cfg.sync)
	}

	var tel *obs.Metrics
	scfg := serve.Config{
		Me: core.PID(cfg.me), F: cfg.f,
		MeshAddrs:      addrs,
		ClientAddr:     cfg.listen,
		WALDir:         cfg.walDir,
		Sync:           sync,
		MaxInflight:    cfg.maxInflight,
		RequestTimeout: cfg.reqTimeout,
		InstanceTTL:    cfg.instTTL,
		Seed:           cfg.seed,
	}
	if cfg.telemetry != "" {
		tel = obs.NewMetrics()
		scfg.Observer = tel
		scfg.Hist = tel.Hist()
	}
	srv, err := serve.Start(scfg)
	if err != nil {
		return nil, nop, err
	}
	cleanup := nop
	if cfg.telemetry != "" {
		ts, err := obs.ServeTelemetry(cfg.telemetry, tel)
		if err != nil {
			srv.Close()
			return nil, nop, fmt.Errorf("telemetry listener: %w", err)
		}
		cleanup = func() { ts.Close() }
		fmt.Fprintf(w, "telemetry listening on http://%s/ (/metrics, /snapshot, /debug/pprof/)\n", ts.Addr())
	}
	fmt.Fprintf(w, "rrfdserve p%d/%d incarnation %d: mesh %s, clients %s, wal %s (sync=%s)\n",
		cfg.me, n, srv.Incarnation(), srv.MeshAddr(), srv.ClientAddr(), cfg.walDir, cfg.sync)
	if rec := srv.Stats().RecoveredDecisions; rec > 0 {
		fmt.Fprintf(w, "recovered %d durable decisions from the journal\n", rec)
	}
	return srv, cleanup, nil
}
