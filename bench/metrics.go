package main

// metricDef mirrors one entry of ../BENCHMARK.json; bench_test.go keeps
// the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`

	// Source (per-layer only) is the workload whose measured phase
	// produces the metric, or "ladder" for the probes.
	Source string `json:"-"`
}

// endToEnd is what a user of the system sees, reported by every
// workload. One operation is a request on svc-*, one fault-injected
// execution on sim-chaos (timed per 250-run chunk), one pass over every
// experiment on sim-paper. The three timings are the clock's readings
// divided by the yardstick's factor (yardstick.go); the readings
// themselves are printed as raw_*. Bound is the share of the parent's
// median by which the metric may worsen before a change is a regression.
// A metric has one bound for all workloads, so each is as wide as its
// noisiest workload needs. The first version of this benchmark reported
// the raw timings and was refused: on the box that judges it, ten runs
// of one commit spread by 25–35% of their median, past the contract's
// ceiling of 0.25. Corrected, they spread by 2–6% (README.md,
// "Baseline"); the bounds stay at the ceiling because what the
// correction cannot see — a host that slows the workload and not the
// yardstick — would otherwise reject an innocent change. Allocation per
// operation repeats to 1–3% and is held to 0.15.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.15},
}

// extraUnits are the units of the end-to-end figures that are printed
// and recorded with every untraced run but carry no bound: failed_share
// must be 0 (the driver reads it from attempted and failed), recover_ms
// exists on one workload only, the tail percentiles and the two memory
// figures spread too widely run to run to be held to one (README.md,
// "What changed from the issue"), and host_factor and raw_* are the
// yardstick's median factor and the timings before it was applied.
var extraUnits = map[string]string{
	"failed_share":  "ratio",
	"host_factor":   "ratio",
	"raw_setup_s":   "s",
	"raw_op_p50_us": "us",
	"raw_ops_per_s": "1/s",
	"op_p90_us":     "us",
	"op_p99_us":     "us",
	"heap_mb":       "MB",
	"peak_rss_mb":   "MB",
	"recover_ms":    "ms",
}

const (
	ladderSrc  = "ladder"
	decideSrc  = "svc-decide"
	durableSrc = "svc-durable"
	readsSrc   = "svc-reads-recover"
	chaosSrc   = "sim-chaos"
	paperSrc   = "sim-paper"
)

var perLayer = []metricDef{
	// core
	{Name: "core.setops_ns", Unit: "ns", Better: "lower", Source: ladderSrc},
	{Name: "core.round_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "core.round_allocs", Unit: "count", Better: "lower", Source: ladderSrc},
	// msgnet, reliablelink, recovery
	{Name: "msgnet.round_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "msgnet.steps_per_run", Unit: "count", Better: "lower", Source: chaosSrc},
	{Name: "reliablelink.round_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "reliablelink.retransmits_per_run", Unit: "count", Better: "lower", Source: chaosSrc},
	{Name: "reliablelink.stalls_per_run", Unit: "count", Better: "lower", Source: chaosSrc},
	{Name: "reliablelink.giveups_per_run", Unit: "count", Better: "lower", Source: chaosSrc},
	{Name: "recovery.round_us", Unit: "us", Better: "lower", Source: ladderSrc},
	// chaos, par
	{Name: "chaos.run_wall_p50_us", Unit: "us", Better: "lower", Source: chaosSrc},
	{Name: "chaos.allocs_per_run", Unit: "count", Better: "lower", Source: chaosSrc},
	{Name: "par.speedup", Unit: "ratio", Better: "higher", Source: chaosSrc},
	// mc, predicate, hoalg
	{Name: "mc.schedules_per_s", Unit: "1/s", Better: "higher", Source: ladderSrc},
	{Name: "mc.schedules", Unit: "count", Better: "lower", Source: ladderSrc},
	{Name: "mc.pruned", Unit: "count", Better: "higher", Source: ladderSrc},
	{Name: "predicate.check_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "hoalg.check_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "hoalg.compile_us", Unit: "us", Better: "lower", Source: ladderSrc},
	// obs, fleet
	{Name: "obs.metrics_overhead", Unit: "ratio", Better: "lower", Source: ladderSrc},
	{Name: "obs.hist_overhead", Unit: "ratio", Better: "lower", Source: ladderSrc},
	{Name: "fleet.instrounds_per_s_s1", Unit: "1/s", Better: "higher", Source: ladderSrc},
	{Name: "fleet.instrounds_per_s_s2", Unit: "1/s", Better: "higher", Source: ladderSrc},
	// exp: one per runner
	{Name: "exp.E01_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E02_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E03_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E04_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E05_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E06_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E07_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E08_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E09_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E10_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E11_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E12_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E13_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E14_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.E15_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.X01_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.X02_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.X03_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.X04_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	{Name: "exp.X05_ms", Unit: "ms", Better: "lower", Source: paperSrc},
	// netsub
	{Name: "netsub.rtt_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "netsub.round_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "netsub.frames_per_decide", Unit: "1/decide", Better: "lower", Source: decideSrc},
	{Name: "netsub.sheds", Unit: "1/decide", Better: "lower", Source: decideSrc},
	{Name: "netsub.reconnects", Unit: "1/kill", Better: "lower", Source: readsSrc},
	// wal
	{Name: "wal.append_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "wal.append_fsync_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "wal.recs_per_sync", Unit: "ratio", Better: "higher", Source: durableSrc},
	{Name: "wal.syncs_per_decide", Unit: "1/decide", Better: "lower", Source: durableSrc},
	{Name: "wal.replay_recs_per_s", Unit: "1/s", Better: "higher", Source: readsSrc},
	{Name: "wal.bytes_per_decide", Unit: "B/decide", Better: "lower", Source: readsSrc},
	// serve
	{Name: "serve.hit_rtt_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "serve.query_rtt_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "serve.fresh_rtt_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "serve.fresh_fsync_rtt_us", Unit: "us", Better: "lower", Source: ladderSrc},
	{Name: "serve.decide_ns_p50", Unit: "ns", Better: "lower", Source: decideSrc},
	{Name: "serve.request_ns_p50", Unit: "ns", Better: "lower", Source: decideSrc},
	{Name: "serve.inflight_p99", Unit: "count", Better: "lower", Source: decideSrc},
	{Name: "serve.bcast_batch_mean", Unit: "count", Better: "higher", Source: decideSrc},
	{Name: "serve.wal_batch_mean", Unit: "count", Better: "higher", Source: durableSrc},
	{Name: "serve.adopted_share", Unit: "ratio", Better: "lower", Source: decideSrc},
	{Name: "serve.abstains", Unit: "count", Better: "lower", Source: decideSrc},
	{Name: "serve.overloads", Unit: "count", Better: "lower", Source: decideSrc},
	{Name: "serve.evictions", Unit: "count", Better: "lower", Source: decideSrc},
	{Name: "serve.idempotent_hit_share", Unit: "ratio", Better: "higher", Source: readsSrc},
	{Name: "serve.restart_ms", Unit: "ms", Better: "lower", Source: readsSrc},
	{Name: "serve.first_ack_ms", Unit: "ms", Better: "lower", Source: readsSrc},
	{Name: "serve.recover_ms", Unit: "ms", Better: "lower", Source: readsSrc},
	// loadgen: the benchmark's own client side
	{Name: "loadgen.attempts_per_req", Unit: "ratio", Better: "lower", Source: decideSrc},
	{Name: "loadgen.req_p99_us", Unit: "us", Better: "lower", Source: decideSrc},
	{Name: "loadgen.req_p999_us", Unit: "us", Better: "lower", Source: decideSrc},
	{Name: "loadgen.durable_p50_us", Unit: "us", Better: "lower", Source: durableSrc},
	{Name: "loadgen.durable_per_s", Unit: "1/s", Better: "higher", Source: durableSrc},
	{Name: "loadgen.client_encode_us", Unit: "us", Better: "lower", Source: ladderSrc},
}
