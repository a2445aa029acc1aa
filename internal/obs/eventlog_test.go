package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Observe(Event{Kind: RunStart, R: -1, P: -1, N: 4})
	l.Observe(Event{Kind: RoundStart, R: 1, P: -1, N: 4})
	l.Observe(Event{Kind: Phase, R: 1, P: -1, Phase: "plan", Dur: 1500 * time.Nanosecond})
	l.Observe(Event{Kind: Crash, R: 1, P: -1, Members: []int{3}})
	l.Observe(Event{Kind: Emit, R: 1, P: 0})
	l.Observe(Event{Kind: Suspect, R: 1, P: 0, Members: []int{3}})
	l.Observe(Event{Kind: Suspect, R: 1, P: 1}) // empty D set: elided
	l.Observe(Event{Kind: Deliver, R: 1, P: 0, N: 3, M: 1})
	l.Observe(Event{Kind: Decide, R: 1, P: 0})
	l.Observe(Event{Kind: "msgnet.send", R: -1, P: 2, Fields: map[string]any{"to": 1}})
	l.Observe(Event{Kind: RunEnd, R: -1, P: -1, N: 1, M: 1})

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("want 10 lines (empty suspect elided), got %d:\n%s", len(lines), buf.String())
	}
	if int(l.Lines()) != len(lines) {
		t.Fatalf("Lines() = %d, file has %d", l.Lines(), len(lines))
	}
	wantEv := []string{"run_start", "round_start", "phase", "crash", "emit", "suspect", "deliver", "decide", "event", "run_end"}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i+1, err, line)
		}
		if rec["ev"] != wantEv[i] {
			t.Fatalf("line %d: ev=%v want %v", i+1, rec["ev"], wantEv[i])
		}
	}
	if !strings.Contains(lines[5], `"suspects":[3]`) {
		t.Fatalf("suspect line lacks members: %s", lines[5])
	}
	if !strings.Contains(lines[8], `"kind":"msgnet.send"`) || !strings.Contains(lines[8], `"to":1`) {
		t.Fatalf("event line: %s", lines[8])
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestEventLogRunEndError(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Observe(Event{Kind: RunEnd, R: -1, P: -1, N: 3, Err: errors.New("round limit")})
	if !strings.Contains(buf.String(), `"error":"round limit"`) {
		t.Fatalf("missing error field: %s", buf.String())
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestEventLogStickyError(t *testing.T) {
	w := &failWriter{}
	l := NewEventLog(w)
	l.Observe(Event{Kind: Emit, R: 1, P: 0})
	l.Observe(Event{Kind: Emit, R: 1, P: 1})
	l.Observe(Event{Kind: Emit, R: 1, P: 2})
	if l.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	if l.Lines() != 0 {
		t.Fatalf("failed writes counted: %d", l.Lines())
	}
	if w.n != 1 {
		t.Fatalf("writer called %d times after sticky error, want 1", w.n)
	}
}

func TestEventLogConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Observe(Event{Kind: Deliver, R: i, P: w, N: 3, M: 1})
			}
		}(w)
	}
	wg.Wait()
	if l.Lines() != 800 {
		t.Fatalf("lines = %d, want 800", l.Lines())
	}
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("interleaved line %d: %v", i+1, err)
		}
	}
}
