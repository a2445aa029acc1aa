package trace

import (
	"encoding/json"
	"io"
	"os"

	"repro/internal/obs"
)

var _ obs.Observer = (*Tracer)(nil)

// event is one Chrome/Perfetto trace event. Field order is fixed so the
// export is byte-stable; args maps serialize with sorted keys
// (encoding/json), so the whole file is a deterministic function of the
// recorded event sequence.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// file is the JSON-object form of the trace-event format.
type file struct {
	TraceEvents []event `json:"traceEvents"`
}

// Perfetto renders the recorded events as Chrome/Perfetto trace-event
// JSON (the "JSON object format": {"traceEvents": [...]}).
func (t *Tracer) Perfetto() ([]byte, error) {
	t.mu.Lock()
	evs := make([]event, len(t.evs))
	copy(evs, t.evs)
	t.mu.Unlock()
	return json.Marshal(file{TraceEvents: evs})
}

// Export writes the Perfetto JSON to w.
func (t *Tracer) Export(w io.Writer) error {
	data, err := t.Perfetto()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ExportFile writes the Perfetto JSON to path, creating or truncating it.
func (t *Tracer) ExportFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
