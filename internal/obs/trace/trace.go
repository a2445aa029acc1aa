// Package trace renders executions as causal span traces: an obs.Observer
// that turns the engine's hook stream into run → round → phase spans,
// message flows linking each Emit to the Delivers that heard it, and
// suspicion/crash/decide instants, exported as Chrome/Perfetto
// trace-event JSON (chrome://tracing, https://ui.perfetto.dev).
//
// Opened in a viewer, one run reads as a Heard-Of diagram: each process
// is a track, each round a span on the engine track, and the flow arrows
// into process p's round-r "deliver" slice are exactly S(p,r) — the
// senders p heard — while the missing arrows are D(p,r), the suspects.
//
// Timestamps are logical, not wall-clock: every hook advances a virtual
// tick, and substrate events carry the scheduler's step clock in their
// args. A trace is therefore a pure function of the schedule — replaying
// the same chaos seed or mc choice string produces byte-identical output
// — and wall-time never leaks into the export (the Phase hook's duration
// is deliberately ignored; Tracer opts out of phase timings entirely).
package trace

import (
	"strconv"
	"sync"
	"time"
)

// Tracer is an Observer recording an execution (or a sequence of
// executions) as trace events. Each observed run becomes one Perfetto
// "process" (pid = run index) whose tracks are the engine (tid 0) and the
// n protocol processes (tid 1+p). Safe for concurrent use, though the
// engine delivers hooks from a single goroutine per run; campaigns
// observing with a Tracer serialize to one worker like any observer.
//
// The zero value is not usable; call New.
type Tracer struct {
	mu  sync.Mutex
	evs []event

	ts  int64 // virtual tick, monotonic across runs
	run int   // pid of the current run; -1 before the first RunStart
	n   int

	runStart   int64
	roundStart int64
	phaseStart int64
	curRound   int
	roundOpen  bool

	flowNext int64 // next unused flow id
	flowBase int64 // flow id of sender 0 in the current round

	emitted   []bool  // sender emitted in the current round
	suspected [][]int // per-process D(p,r) of the current round, set by Suspect
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

// RunStart implements obs.Observer.
func (t *Tracer) RunStart(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
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

// RoundStart implements obs.Observer.
func (t *Tracer) RoundStart(r, active int) {
	t.mu.Lock()
	defer t.mu.Unlock()
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

// Emit implements obs.Observer: a one-tick slice on p's track opening the
// message flow other processes' Delivers terminate.
func (t *Tracer) Emit(r, p int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ts := t.tick()
	t.span("emit", 1+p, ts, ts+1, nil)
	t.flow("s", "", t.flowBase+int64(p), ts, 1+p)
	if p >= 0 && p < len(t.emitted) {
		t.emitted[p] = true
	}
}

// Suspect implements obs.Observer: records D(p,r) — both as an instant on
// p's track and internally, so the following Deliver can draw flows from
// exactly the senders p heard (emitted minus suspected).
func (t *Tracer) Suspect(r, p int, suspects []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(suspects) > 0 {
		t.instant("suspect", 1+p, map[string]any{"suspects": append([]int(nil), suspects...)})
	}
	if p >= 0 && p < len(t.suspected) {
		t.suspected[p] = append(t.suspected[p][:0], suspects...)
	}
}

// Deliver implements obs.Observer: a one-tick slice on p's track
// terminating one flow per heard sender.
func (t *Tracer) Deliver(r, p, delivered, suspected int) {
	t.mu.Lock()
	defer t.mu.Unlock()
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

// Crash implements obs.Observer.
func (t *Tracer) Crash(r int, crashed []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range crashed {
		t.instant("crash", 1+p, map[string]any{"round": r})
	}
}

// Decide implements obs.Observer.
func (t *Tracer) Decide(r, p int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.instant("decide", 1+p, map[string]any{"round": r})
}

// Phase implements obs.Observer: the phase span covers the hooks observed
// since the previous phase boundary. The wall-clock duration is ignored —
// trace output must stay a pure function of the schedule — and the
// synthetic whole-round "round" phase is skipped (the round span already
// covers it).
func (t *Tracer) Phase(r int, phase string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if phase == "round" {
		return
	}
	end := t.tick() + 1
	t.span("phase:"+phase, 0, t.phaseStart, end, nil)
	t.phaseStart = t.ts
}

// NeedsPhaseTimings implements obs.PhaseTimer: logical spans only, no
// engine clock reads on the Tracer's account.
func (t *Tracer) NeedsPhaseTimings() bool { return false }

// RunEnd implements obs.Observer.
func (t *Tracer) RunEnd(rounds, decided int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closeRound()
	args := map[string]any{"rounds": rounds, "decided": decided}
	if err != nil {
		args["error"] = err.Error()
	}
	end := t.tick() + 1
	t.span("run", 0, t.runStart, end, args)
}

// Event implements obs.Observer: substrate events become instants on the
// owning process's track, carrying their fields — including the scheduler
// "step" clock — as args. No event carries wall-clock time, so the export
// stays deterministic.
func (t *Tracer) Event(kind string, r, p int, fields map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tid := 0
	if p >= 0 {
		tid = 1 + p
	}
	var args map[string]any
	if len(fields) > 0 || r >= 0 {
		args = make(map[string]any, len(fields)+1)
		for k, v := range fields {
			args[k] = v
		}
		if r >= 0 {
			args["round"] = r
		}
	}
	t.instant(kind, tid, args)
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
