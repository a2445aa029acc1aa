package rrfd

import (
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/obs/hist"
	"repro/internal/obs/trace"
	"repro/internal/par"
)

// Live telemetry, re-exported from internal/obs, internal/obs/hist,
// internal/obs/trace and internal/par: mergeable latency histograms, the
// causal span tracer with Perfetto export, the /metrics + /snapshot +
// /debug/pprof endpoint, and the worker-pool meter. See DESIGN §13.

type (
	// Telemetry bundles a Metrics observer and its histogram registry
	// behind one handle shared by observers, meters and the endpoint.
	Telemetry = obs.Telemetry

	// Tracer is an Observer assembling the causal span trace of an
	// execution (run → round → phase spans, Emit→Deliver message flows,
	// suspicion/crash/decide instants) on the virtual step clock, exported
	// as Chrome/Perfetto trace-event JSON.
	Tracer = trace.Tracer

	// PoolMeter is the par worker pool's task-latency / queue-depth
	// instrumentation.
	PoolMeter = par.Meter
)

var (
	// NewTelemetry returns a fresh Telemetry around an empty Metrics.
	NewTelemetry = obs.NewTelemetry

	// ServeTelemetry binds an address (synchronously, so bind errors are
	// returned, not logged from a goroutine) and serves /metrics,
	// /snapshot and /debug/pprof in the background.
	ServeTelemetry = obs.ServeTelemetry

	// NewHistogram returns an empty standalone histogram.
	NewHistogram = hist.New

	// NewTracer returns an empty Tracer.
	NewTracer = trace.New

	// SetPoolMeter installs (nil removes) the process-wide par pool meter.
	SetPoolMeter = par.SetMeter
)

// ChaosReplay re-executes one recorded violation scenario — same scheduler
// seed, same crash set, the minimized fault plan — under cfg's Observer.
// Attaching a Tracer renders the counterexample as a causal Perfetto
// trace. Only harness errors are returned; the replayed run's outputs are
// judged by the observer, not here.
func ChaosReplay(cfg ChaosConfig, v chaos.Violation) error {
	_, _, _, err := chaos.Execute(cfg, v.SchedSeed, v.MinPlan, v.Crashes)
	return err
}
