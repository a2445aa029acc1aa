package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// recorder appends the kinds of round, decide and phase events in call
// order.
type recorder struct {
	calls []string
}

func (r *recorder) Observe(e Event) {
	switch e.Kind {
	case RoundStart, Decide, Phase:
		r.calls = append(r.calls, e.Kind)
	}
}

// everyKind is one event of each engine kind and one substrate event, each
// with the least payload it may carry.
var everyKind = []Event{
	{Kind: RunStart, R: -1, P: -1, N: 3},
	{Kind: RoundStart, R: 1, P: -1, N: 3},
	{Kind: Emit, R: 1, P: 0},
	{Kind: Deliver, R: 1, P: 0, N: 2, M: 1},
	{Kind: Suspect, R: 1, P: 0, Members: []int{2}},
	{Kind: Crash, R: 1, P: -1, Members: []int{2}},
	{Kind: Decide, R: 1, P: 0},
	{Kind: Phase, R: 1, P: -1, Phase: "plan", Dur: time.Nanosecond},
	{Kind: "k", R: 1, P: 0},
	{Kind: RunEnd, R: -1, P: -1, N: 1, M: 1},
}

func TestMultiNilHandling(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	r := &recorder{}
	if got := Multi(nil, r, nil); got != Observer(r) {
		t.Fatal("Multi with one live observer should return it unwrapped")
	}
}

// TestMultiDropsTypedNils covers the typed-nil footgun: an unassigned
// *Metrics or *EventLog variable passed through the Observer interface is
// not == nil, but must still be dropped rather than dereferenced later.
func TestMultiDropsTypedNils(t *testing.T) {
	var m *Metrics
	var e *EventLog
	if got := Multi(m, e); got != nil {
		t.Fatalf("Multi(typed nil, typed nil) = %v, want nil", got)
	}
	r := &recorder{}
	combined := Multi(m, r, e)
	if combined != Observer(r) {
		t.Fatal("typed nils should be filtered, leaving the live observer unwrapped")
	}
	combined.Observe(Event{Kind: RunStart, R: -1, P: -1, N: 1}) // must not panic
}

func TestMultiFansOut(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	m := Multi(a, nil, b)
	for _, e := range everyKind {
		m.Observe(e)
	}
	want := []string{RoundStart, Decide, Phase}
	for _, rec := range []*recorder{a, b} {
		if len(rec.calls) != len(want) {
			t.Fatalf("calls = %v", rec.calls)
		}
		for i := range want {
			if rec.calls[i] != want[i] {
				t.Fatalf("calls = %v, want %v", rec.calls, want)
			}
		}
	}
}

// TestEverySinkObservesEveryKind: Metrics and EventLog take every kind
// without panicking, and the log writes one line for each.
func TestEverySinkObservesEveryKind(t *testing.T) {
	var buf bytes.Buffer
	o := Multi(NewMetrics(), NewEventLog(&buf))
	for _, e := range everyKind {
		o.Observe(e)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(everyKind) {
		t.Fatalf("%d lines for %d events:\n%s", got, len(everyKind), buf.String())
	}
}
