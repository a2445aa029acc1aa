// Package trace renders executions as causal span traces: an obs.Observer
// that turns the engine's event stream into run → round → phase spans,
// message flows linking each emit to the delivers that heard it, and
// suspicion/crash/decide instants, exported as Chrome/Perfetto
// trace-event JSON (chrome://tracing, https://ui.perfetto.dev).
//
// Opened in a viewer, one run reads as a Heard-Of diagram: each process
// is a track, each round a span on the engine track, and the flow arrows
// into process p's round-r "deliver" slice are exactly S(p,r) — the
// senders p heard — while the missing arrows are D(p,r), the suspects.
//
// Timestamps are logical, not wall-clock: every event advances a virtual
// tick, and substrate events carry the scheduler's step clock in their
// args. A trace is therefore a pure function of the schedule — replaying
// the same chaos seed or mc choice string produces byte-identical output
// — and wall-time never leaks into the export (a phase event's duration
// is deliberately ignored).
package trace

import (
	"strconv"
	"sync"

	"repro/internal/obs"
)

// Tracer is an Observer recording an execution (or a sequence of
// executions) as trace events. Each observed run becomes one Perfetto
// "process" (pid = run index) whose tracks are the engine (tid 0) and the
// n protocol processes (tid 1+p). Safe for concurrent use, though the
// engine delivers events from a single goroutine per run; campaigns
// observing with a Tracer serialize to one worker like any observer.
//
// The zero value is not usable; call New.
type Tracer struct {
	mu  sync.Mutex
	evs []event

	ts  int64 // virtual tick, monotonic across runs
	run int   // pid of the current run; -1 before the first run_start
	n   int

	runStart   int64
	roundStart int64
	phaseStart int64
	curRound   int
	roundOpen  bool

	flowNext int64 // next unused flow id
	flowBase int64 // flow id of sender 0 in the current round

	emitted   []bool  // sender emitted in the current round
	suspected [][]int // per-process D(p,r) of the current round, set by suspect events
}

// New returns an empty Tracer.
func New() *Tracer {
	return &Tracer{run: -1}
}

// tick returns the current virtual timestamp and advances it.
func (t *Tracer) tick() int64 {
	ts := t.ts
	t.ts++
	return ts
}

// meta appends a metadata record naming a track.
func (t *Tracer) meta(kind string, tid int, name string) {
	t.evs = append(t.evs, event{
		Name: kind, Ph: "M", Pid: t.run, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// Observe implements obs.Observer: one case per engine kind, and substrate
// events as instants.
func (t *Tracer) Observe(e obs.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Kind {
	case obs.RunStart:
		t.openRun(e.N)
	case obs.RoundStart:
		t.openRound(e.R, e.N)
	case obs.Emit:
		// A one-tick slice on p's track opening the message flow other
		// processes' delivers terminate.
		ts := t.tick()
		t.span("emit", 1+e.P, ts, ts+1, nil)
		t.flow("s", "", t.flowBase+int64(e.P), ts, 1+e.P)
		if e.P >= 0 && e.P < len(t.emitted) {
			t.emitted[e.P] = true
		}
	case obs.Suspect:
		// D(p,r) is recorded both as an instant on p's track and
		// internally, so the following deliver can draw flows from exactly
		// the senders p heard (emitted minus suspected).
		if len(e.Members) > 0 {
			t.instant("suspect", 1+e.P, map[string]any{"suspects": append([]int(nil), e.Members...)})
		}
		if e.P >= 0 && e.P < len(t.suspected) {
			t.suspected[e.P] = append(t.suspected[e.P][:0], e.Members...)
		}
	case obs.Deliver:
		t.deliver(e.P, e.N, e.M)
	case obs.Crash:
		for _, p := range e.Members {
			t.instant("crash", 1+p, map[string]any{"round": e.R})
		}
	case obs.Decide:
		t.instant("decide", 1+e.P, map[string]any{"round": e.R})
	case obs.Phase:
		// The phase span covers the events observed since the previous
		// phase boundary. The wall-clock duration is ignored — trace
		// output must stay a pure function of the schedule — and the
		// synthetic whole-round "round" phase is skipped (the round span
		// already covers it).
		if e.Phase == "round" {
			return
		}
		end := t.tick() + 1
		t.span("phase:"+e.Phase, 0, t.phaseStart, end, nil)
		t.phaseStart = t.ts
	case obs.RunEnd:
		t.closeRound()
		args := map[string]any{"rounds": e.N, "decided": e.M}
		if e.Err != nil {
			args["error"] = e.Err.Error()
		}
		end := t.tick() + 1
		t.span("run", 0, t.runStart, end, args)
	default:
		t.substrate(e)
	}
}

// openRun opens run n's process and tracks.
func (t *Tracer) openRun(n int) {
	t.run++
	t.n = n
	t.meta("process_name", 0, "run")
	t.meta("thread_name", 0, "engine")
	for p := 0; p < n; p++ {
		t.meta("thread_name", 1+p, procName(p))
	}
	t.runStart = t.tick()
	t.roundOpen = false
	t.emitted = make([]bool, n)
	t.suspected = make([][]int, n)
}

// closeRound emits the span of the round in flight, if any.
func (t *Tracer) closeRound() {
	if !t.roundOpen {
		return
	}
	t.span("round "+strconv.Itoa(t.curRound), 0, t.roundStart, t.ts, nil)
	t.roundOpen = false
}

// openRound closes the previous round and opens round r.
func (t *Tracer) openRound(r, active int) {
	t.closeRound()
	t.curRound = r
	t.roundOpen = true
	t.roundStart = t.tick()
	t.phaseStart = t.ts
	t.flowBase = t.flowNext
	t.flowNext += int64(t.n)
	for p := range t.emitted {
		t.emitted[p] = false
		t.suspected[p] = nil
	}
	t.instant("round_start", 0, map[string]any{"round": r, "active": active})
}

// deliver is a one-tick slice on p's track terminating one flow per heard
// sender.
func (t *Tracer) deliver(p, delivered, suspected int) {
	ts := t.tick()
	t.span("deliver", 1+p, ts, ts+1, map[string]any{
		"delivered": delivered, "suspected": suspected,
	})
	if p < 0 || p >= len(t.suspected) {
		return
	}
	heard := make(map[int]bool, len(t.emitted))
	for q, ok := range t.emitted {
		heard[q] = ok
	}
	for _, q := range t.suspected[p] {
		heard[q] = false
	}
	for q := 0; q < len(t.emitted); q++ {
		if heard[q] {
			t.flow("f", "e", t.flowBase+int64(q), ts, 1+p)
		}
	}
}

// substrate records a substrate event as an instant on the owning
// process's track, carrying its fields — including the scheduler "step"
// clock — as args. No event carries wall-clock time, so the export stays
// deterministic.
func (t *Tracer) substrate(e obs.Event) {
	tid := 0
	if e.P >= 0 {
		tid = 1 + e.P
	}
	var args map[string]any
	if len(e.Fields) > 0 || e.R >= 0 {
		args = make(map[string]any, len(e.Fields)+1)
		for k, v := range e.Fields {
			args[k] = v
		}
		if e.R >= 0 {
			args["round"] = e.R
		}
	}
	t.instant(e.Kind, tid, args)
}

// span appends a complete ("X") event covering [start, end).
func (t *Tracer) span(name string, tid int, start, end int64, args map[string]any) {
	dur := end - start
	if dur < 1 {
		dur = 1
	}
	t.evs = append(t.evs, event{
		Name: name, Ph: "X", Ts: start, Dur: dur, Pid: t.run, Tid: tid, Args: args,
	})
}

// instant appends a thread-scoped instant ("i") event at the next tick.
func (t *Tracer) instant(name string, tid int, args map[string]any) {
	t.evs = append(t.evs, event{
		Name: name, Ph: "i", Ts: t.tick(), Pid: t.run, Tid: tid, S: "t", Args: args,
	})
}

// flow appends a flow event ("s" start / "f" finish) with binding point bp.
func (t *Tracer) flow(ph, bp string, id, ts int64, tid int) {
	t.evs = append(t.evs, event{
		Name: "msg", Ph: ph, Ts: ts, Pid: t.run, Tid: tid, ID: id + 1, BP: bp,
	})
}

// Len returns the number of recorded trace events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.evs)
}

// Reset drops every recorded event and restarts run numbering.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evs = nil
	t.ts = 0
	t.run = -1
	t.flowNext = 0
	t.roundOpen = false
}

// procName renders a process track name ("p0", "p1", ...).
func procName(p int) string { return "p" + strconv.Itoa(p) }
