// Package obs is the execution observability layer: a zero-dependency
// (stdlib-only) metrics and structured-event subsystem for the RRFD engine
// and its substrates.
//
// The design splits observation into three pieces:
//
//   - Observer — the one hook, Observe(Event), that the engine (core.Run
//     via core.WithObserver) and the substrates (msgnet, reliablelink,
//     netsub, serve, mc, agreement, chaos, recovery) call at every
//     interesting point of an execution. The engine pays nothing when no
//     observer is attached: every call site is guarded by a single nil
//     check.
//   - Metrics — a concurrency-safe Observer aggregating counters and
//     histograms (rounds to decision, suspicions per round, D-set sizes,
//     per-phase wall time, protocol events) with a JSON-serializable
//     Snapshot.
//   - EventLog — an Observer streaming every event as one JSON object per
//     line (JSONL), so full executions can be archived, replayed and diffed
//     alongside the in-memory core.Trace.
//
// Events deliberately speak in primitive types (ints, slices) rather
// than core.Set / core.PID so that core can depend on obs without a cycle.
// Process identifiers are plain ints; -1 means "no process" and round -1
// means "no round" (used by the asynchronous substrates, which have steps
// rather than rounds).
package obs

import (
	"reflect"
	"time"
)

// Observer receives structured events from an execution. Implementations
// must be safe for use from a single engine goroutine; Metrics and EventLog
// are additionally safe for concurrent use from many executions at once.
type Observer interface {
	// Observe reports one event. The event and everything it points to
	// are owned by the caller; an observer copies what it retains.
	Observe(e Event)
}

// The engine's event kinds, spelled as EventLog's "ev" values. Any other
// Kind is a substrate's dot-namespaced kind ("msgnet.send", "mc.done").
const (
	RunStart   = "run_start"
	RoundStart = "round_start"
	Emit       = "emit"
	Deliver    = "deliver"
	Suspect    = "suspect"
	Crash      = "crash"
	Decide     = "decide"
	RunEnd     = "run_end"
	Phase      = "phase"
)

// Event is one observation. Kind says which fields it sets; R and P are
// -1 where the table has none, and unlisted fields are zero:
//
//	Kind         R  P  N          M          other
//	run_start    -  -  processes
//	round_start  r  -  active                          (survivors entering r)
//	emit         r  p
//	deliver      r  p  |S(p,r)|   |D(p,r)|
//	suspect      r  p                        Members   D(p,r)
//	crash        r  -                        Members   crashed at r's start
//	decide       r  p                                  (p's first decision)
//	run_end      -  -  rounds     decided    Err       (nil on success)
//	phase        r  -                        Phase, Dur
//	substrate    r  p                        Fields    (r, p may be -1)
//
// A phase is "plan", "emit" or "deliver", timed on the engine's injected
// clock, or the synthetic "round" whose duration is the sum of the three
// (no extra clock reads).
type Event struct {
	Kind string
	R, P int

	// N and M are the kind's two counts.
	N, M int

	// Members lists the processes of a suspect or crash event.
	Members []int

	// Phase names an engine phase; Dur is its wall time.
	Phase string
	Dur   time.Duration

	// Err is the engine error a run ended with.
	Err error

	// Fields hold a substrate event's data and may be nil.
	Fields map[string]any
}

// multi fans every event out to several observers in order.
type multi []Observer

// Multi combines observers into one that forwards every event to each, in
// argument order. Nil entries — including typed nils such as a
// (*Metrics)(nil) passed through the interface — are skipped; with zero
// non-nil observers it returns nil, so the caller's "is anything
// observing?" nil check keeps working.
func Multi(obs ...Observer) Observer {
	var live multi
	for _, o := range obs {
		if !isNil(o) {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return live
	}
}

// isNil reports whether o is nil as an interface or wraps a nil pointer —
// the classic typed-nil footgun when a caller passes an unassigned
// *Metrics or *EventLog variable.
func isNil(o Observer) bool {
	if o == nil {
		return true
	}
	v := reflect.ValueOf(o)
	switch v.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Func, reflect.Chan, reflect.Slice:
		return v.IsNil()
	}
	return false
}

// Observe implements Observer.
func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}
