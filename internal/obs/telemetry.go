package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs/hist"
)

// Telemetry bundles the process-wide measurement state — a Metrics
// observer and its histogram registry — behind one handle that exporters,
// CLIs and campaign drivers share. Attach Metrics wherever an Observer
// goes, hand Hist to whatever meters outside the observer (chaos
// per-run wall time, par task latency), and serve both with
// ServeTelemetry.
type Telemetry struct {
	// Metrics aggregates observed events; attach it via core.WithObserver,
	// Multi, or SetDefaultObserver.
	Metrics *Metrics

	// Hist is Metrics.Hist(): the shared registry of latency/size
	// histograms. Non-observer instrumentation records here directly.
	Hist *hist.Registry
}

// NewTelemetry returns a fresh Telemetry around an empty Metrics.
func NewTelemetry() *Telemetry {
	m := NewMetrics()
	return &Telemetry{Metrics: m, Hist: m.Hist()}
}

// TelemetryServer is a live telemetry endpoint started by ServeTelemetry.
type TelemetryServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeTelemetry binds addr and serves the telemetry endpoints in a
// background goroutine:
//
//	/metrics        Prometheus text exposition (counters + quantiles)
//	/snapshot       the full Metrics Snapshot as indented JSON
//	/debug/pprof/   the standard net/http/pprof profiles
//
// Unlike a bare `go http.ListenAndServe`, the bind happens synchronously:
// a bad or occupied address is reported here, not logged from a goroutine
// after the caller moved on. Close shuts the listener down.
func ServeTelemetry(addr string, t *Telemetry) (*TelemetryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, t.Metrics.Snapshot())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		data, err := t.Metrics.Snapshot().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
		w.Write([]byte("\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	return &TelemetryServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address ("127.0.0.1:43123"), useful with ":0".
func (s *TelemetryServer) Addr() string { return s.ln.Addr().String() }

// Close stops serving and releases the listener.
func (s *TelemetryServer) Close() error { return s.srv.Close() }
