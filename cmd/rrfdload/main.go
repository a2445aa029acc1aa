// Command rrfdload drives seeded client load at an agreement service and
// audits the answers. Each simulated client owns a deterministic request
// stream (instance IDs, values, server pins, request IDs all drawn from
// -seed) and submits with the retrying client: bounded attempts, seeded
// jittered backoff, the same request ID on every retry.
//
// After the run it audits what every client saw, across retries and
// servers:
//
//   - idempotency: all decided answers for one request ID agree;
//   - k-agreement: each instance shows at most k distinct decided values;
//   - validity: every decided value was submitted by some client.
//
// Any violation makes the exit status non-zero, so the tool doubles as a
// smoke check in CI.
//
// -local N skips the network setup and starts an in-process loopback
// cluster of N nodes (journals in a temp directory) — the one-command
// smoke test; an -f the cluster cannot tolerate (f >= N) is clamped to
// (N-1)/2 before k = f+1 is derived from it. Otherwise -addrs lists the
// client-facing addresses of an already-running rrfdserve mesh, and -f must
// be below their number.
//
// Scale mode: -conns bounds the real connection pool, multiplexing the
// -clients simulated clients over that many worker goroutines — the way
// to point 10⁵ virtual clients at a cluster without 10⁵ TCP
// connections. Each virtual client's request stream stays deterministic
// (drawn from -seed exactly as in the unpooled mode); only the carrier
// changes. Decide latencies additionally feed an obs/hist histogram,
// reported as p50/p95/p99.
//
// Usage:
//
//	rrfdload -local 3 -clients 8 -requests 50
//	rrfdload -local 3 -clients 100000 -requests 1 -conns 16 -instances 4096
//	rrfdload -addrs 127.0.0.1:8000,127.0.0.1:8001,127.0.0.1:8002 -f 1 -clients 16
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	rrfd "repro"
)

type config struct {
	addrs     string
	local     int
	f, k      int
	clients   int
	conns     int
	requests  int
	instances int
	seed      int64
	timeout   time.Duration
	attempts  int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addrs, "addrs", "", "comma-separated client-facing addresses of a running mesh")
	flag.IntVar(&cfg.local, "local", 0, "start an in-process loopback cluster of this size instead of dialing -addrs")
	flag.IntVar(&cfg.f, "f", 1, "fault budget of the target mesh (defaults k to f+1)")
	flag.IntVar(&cfg.k, "k", 0, "agreement bound audited per instance (0 = f+1)")
	flag.IntVar(&cfg.clients, "clients", 8, "concurrent simulated clients")
	flag.IntVar(&cfg.conns, "conns", 0, "bound the real connection pool, multiplexing the simulated clients over it (0 = one per client)")
	flag.IntVar(&cfg.requests, "requests", 25, "requests per client")
	flag.IntVar(&cfg.instances, "instances", 16, "instance-ID space the load draws from")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the load shape and the clients' retry jitter")
	flag.DurationVar(&cfg.timeout, "timeout", 2*time.Second, "per-attempt client timeout")
	flag.IntVar(&cfg.attempts, "attempts", 8, "attempt budget per request")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(cfg config, w io.Writer) error {
	if (cfg.local > 0) == (cfg.addrs != "") {
		return fmt.Errorf("pick exactly one of -local N and -addrs")
	}
	if cfg.clients <= 0 || cfg.requests <= 0 || cfg.instances <= 0 {
		return fmt.Errorf("-clients, -requests and -instances must be positive")
	}
	if cfg.conns < 0 {
		return fmt.Errorf("-conns must be >= 0")
	}

	// Settle f before k = f+1 is derived from it: a local cluster clamps an
	// f it cannot tolerate to (n-1)/2, a running mesh cannot have one.
	var addrs []string
	if cfg.local > 0 {
		if cfg.f >= cfg.local {
			cfg.f = (cfg.local - 1) / 2
		}
	} else {
		addrs = strings.Split(cfg.addrs, ",")
		if cfg.f >= len(addrs) {
			return fmt.Errorf("-f %d with %d addresses: a mesh of n tolerates f < n", cfg.f, len(addrs))
		}
	}
	if cfg.f < 0 {
		return fmt.Errorf("-f must be >= 0")
	}
	if cfg.k == 0 {
		cfg.k = cfg.f + 1
	}

	if cfg.local > 0 {
		dir, err := os.MkdirTemp("", "rrfdload")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cl, err := rrfd.StartServiceCluster(rrfd.ServiceClusterConfig{
			N: cfg.local, F: cfg.f, K: cfg.k,
			Dir:            dir,
			Sync:           rrfd.SyncAlways,
			RequestTimeout: cfg.timeout,
			Seed:           cfg.seed,
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		addrs = cl.ClientAddrs()
		fmt.Fprintf(w, "local cluster: %d nodes (f=%d) on %s\n", cfg.local, cfg.f, strings.Join(addrs, ","))
	}

	// One goroutine (with its own connections) per simulated client, unless
	// -conns bounds the pool — then the virtual clients are multiplexed over
	// that many carriers.
	workers := cfg.clients
	if cfg.conns > 0 && cfg.conns < workers {
		workers = cfg.conns
	}
	load := rrfd.PlantServiceLoad(rand.New(rand.NewSource(cfg.seed)), cfg.clients, cfg.requests, cfg.instances, len(addrs))
	startAll := time.Now()
	outs, retries := load.Drive(addrs, workers, rrfd.ServiceClientConfig{
		Timeout:     cfg.timeout,
		MaxAttempts: cfg.attempts,
		Seed:        cfg.seed,
	})
	elapsed := time.Since(startAll)

	audit := rrfd.NewServiceAuditor()
	tally := load.Tally(audit, outs)
	violations := audit.Violations(load.Submitted(), cfg.k)
	instances, distinctMax := audit.Decided()

	hDecide := rrfd.NewHistogram()
	lat := make([]time.Duration, len(outs))
	for i, oc := range outs {
		lat[i] = oc.Latency
		if oc.Status == rrfd.ServiceDecided {
			hDecide.Record(oc.Latency.Nanoseconds())
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	fmt.Fprintf(w, "rrfdload: %d requests by %d clients in %v (%.0f req/s, %d retries)\n",
		len(outs), cfg.clients, elapsed.Round(time.Millisecond),
		float64(len(outs))/elapsed.Seconds(), retries)
	if workers < cfg.clients {
		fmt.Fprintf(w, "scale: %d virtual clients multiplexed over %d connections\n", cfg.clients, workers)
	}
	fmt.Fprintf(w, "outcomes: %d decided, %d abstained, %d overloaded, %d unreachable\n",
		tally.Decided, tally.Abstained, tally.Overloaded, tally.Unreachable)
	fmt.Fprintf(w, "latency: p50 %v, p95 %v, max %v\n",
		q(0.50).Round(time.Microsecond), q(0.95).Round(time.Microsecond), q(1.0).Round(time.Microsecond))
	if hDecide.Count() > 0 {
		hq := func(p float64) time.Duration { return time.Duration(hDecide.Quantile(p)) }
		fmt.Fprintf(w, "decide latency: p50 %v, p95 %v, p99 %v (%d decided)\n",
			hq(0.50).Round(time.Microsecond), hq(0.95).Round(time.Microsecond),
			hq(0.99).Round(time.Microsecond), hDecide.Count())
	}
	fmt.Fprintf(w, "agreement: %d instances decided, widest %d distinct values (k=%d)\n",
		instances, distinctMax, cfg.k)
	for _, v := range violations {
		fmt.Fprintf(w, "VIOLATION %s: %s\n", v.Kind, v.Detail(cfg.k))
	}
	if len(violations) > 0 {
		return fmt.Errorf("rrfdload: %d violation(s)", len(violations))
	}
	fmt.Fprintf(w, "ok: idempotency, validity and %d-agreement hold across all clients\n", cfg.k)
	return nil
}
