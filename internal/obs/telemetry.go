package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// TelemetryServer is a live telemetry endpoint started by ServeTelemetry.
type TelemetryServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeTelemetry binds addr and serves m — its counters and its
// histogram registry, m.Hist(), which non-observer instrumentation (chaos
// per-run wall time, par task latency) records into — in a background
// goroutine:
//
//	/metrics        Prometheus text exposition (counters + quantiles)
//	/snapshot       the full Metrics Snapshot as indented JSON
//	/debug/pprof/   the standard net/http/pprof profiles
//
// Unlike a bare `go http.ListenAndServe`, the bind happens synchronously:
// a bad or occupied address is reported here, not logged from a goroutine
// after the caller moved on. Close shuts the listener down.
func ServeTelemetry(addr string, m *Metrics) (*TelemetryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, m.Snapshot())
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		data, err := m.Snapshot().JSON()
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
