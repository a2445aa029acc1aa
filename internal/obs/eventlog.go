package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// EventLog is an Observer that streams every event as one JSON object per
// line (JSONL) to a writer. Lines are self-describing: every record has an
// "ev" discriminator, and carries "r" (round) and "p" (process) when they
// apply. The stream complements core.Trace — the trace is the complete
// model-level artifact, the event log is the incremental, diffable,
// tail -f-able one.
//
// The schema, one line shape per event kind:
//
//	{"ev":"run_start","n":8}
//	{"ev":"round_start","r":1,"active":8}
//	{"ev":"phase","r":1,"phase":"plan","ns":1234}
//	{"ev":"crash","r":2,"crashed":[3,5]}
//	{"ev":"emit","r":1,"p":0}
//	{"ev":"suspect","r":1,"p":0,"suspects":[3]}
//	{"ev":"deliver","r":1,"p":0,"s":7,"d":1}
//	{"ev":"decide","r":1,"p":0}
//	{"ev":"run_end","rounds":2,"decided":8}          (+"error" on failure)
//	{"ev":"event","kind":"msgnet.send","r":-1,"p":0,"fields":{"step":3,"to":1}}
//
// All methods are safe for concurrent use. Write errors are sticky: the
// first one is kept, later writes are dropped, and Err reports it.
type EventLog struct {
	mu    sync.Mutex
	enc   *json.Encoder
	lines int64
	err   error
}

// NewEventLog returns an EventLog writing JSONL to w. The caller owns w
// (flushing and closing it); the log only appends lines.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{enc: json.NewEncoder(w)}
}

// Lines returns the number of lines successfully written.
func (l *EventLog) Lines() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lines
}

// Err returns the first write error, if any.
func (l *EventLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *EventLog) write(v any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	if err := l.enc.Encode(v); err != nil {
		l.err = err
		return
	}
	l.lines++
}

// Observe implements Observer: one line per event, shaped by its kind.
func (l *EventLog) Observe(e Event) {
	var line any
	switch e.Kind {
	case RunStart:
		line = struct {
			Ev string `json:"ev"`
			N  int    `json:"n"`
		}{e.Kind, e.N}
	case RoundStart:
		line = struct {
			Ev     string `json:"ev"`
			R      int    `json:"r"`
			Active int    `json:"active"`
		}{e.Kind, e.R, e.N}
	case Emit, Decide:
		line = struct {
			Ev string `json:"ev"`
			R  int    `json:"r"`
			P  int    `json:"p"`
		}{e.Kind, e.R, e.P}
	case Deliver:
		line = struct {
			Ev string `json:"ev"`
			R  int    `json:"r"`
			P  int    `json:"p"`
			S  int    `json:"s"`
			D  int    `json:"d"`
		}{e.Kind, e.R, e.P, e.N, e.M}
	case Suspect:
		if len(e.Members) == 0 {
			return // benign rounds dominate; elide empty D sets
		}
		line = struct {
			Ev       string `json:"ev"`
			R        int    `json:"r"`
			P        int    `json:"p"`
			Suspects []int  `json:"suspects"`
		}{e.Kind, e.R, e.P, e.Members}
	case Crash:
		line = struct {
			Ev      string `json:"ev"`
			R       int    `json:"r"`
			Crashed []int  `json:"crashed"`
		}{e.Kind, e.R, e.Members}
	case RunEnd:
		msg := ""
		if e.Err != nil {
			msg = e.Err.Error()
		}
		line = struct {
			Ev      string `json:"ev"`
			Rounds  int    `json:"rounds"`
			Decided int    `json:"decided"`
			Error   string `json:"error,omitempty"`
		}{e.Kind, e.N, e.M, msg}
	case Phase:
		line = struct {
			Ev    string `json:"ev"`
			R     int    `json:"r"`
			Phase string `json:"phase"`
			NS    int64  `json:"ns"`
		}{e.Kind, e.R, e.Phase, int64(e.Dur)}
	default:
		line = struct {
			Ev     string         `json:"ev"`
			Kind   string         `json:"kind"`
			R      int            `json:"r"`
			P      int            `json:"p"`
			Fields map[string]any `json:"fields,omitempty"`
		}{"event", e.Kind, e.R, e.P, e.Fields}
	}
	l.write(line)
}

var _ Observer = (*EventLog)(nil)
