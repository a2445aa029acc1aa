package obs

import (
	"encoding/json"
	"sync"

	"repro/internal/obs/hist"
)

// Metrics is an Observer that aggregates an execution (or many executions)
// into counters and histograms. All methods are safe for concurrent use, so
// one Metrics may observe parallel sweeps; Snapshot can be taken at any
// time.
//
// Alongside the counters, Metrics feeds a hist.Registry of latency and
// size distributions: per-phase and per-round wall time (oracle-plan
// latency is the "plan" phase) and delivery fan-in. The registry is shared
// with whatever else meters the process (chaos campaigns, par pools) via
// Hist, and is what /metrics and /snapshot expose when the Metrics is
// served by ServeTelemetry.
//
// Metrics names no subsystem. A substrate's events are counted by kind,
// and what their fields mean stays with the package that emits them, which
// keeps its own counts: serve.Stats, netsub.Stats, reliablelink.Stats,
// mc.Result and the chaos campaign summaries.
type Metrics struct {
	mu sync.Mutex

	runs       int64
	runErrors  int64
	rounds     int64
	emits      int64
	delivered  int64
	suspicions int64
	crashes    int64
	decisions  int64

	roundsToDecision   map[int]int64 // decision round → processes deciding there
	dsetSizes          map[int]int64 // |D(i,r)| → occurrences
	suspicionsPerRound map[int]int64 // round → Σ_i |D(i,r)|
	suspectedCounts    map[int]int64 // process → times appearing in any D(i,r)
	events             map[string]int64

	// Histograms record outside the mutex (hist is sharded-atomic); the
	// hot-path ones are resolved to direct pointers at construction.
	hists  *hist.Registry
	hPhase [len(phaseHists)]*hist.Histogram // hPhase[i] records phaseHists[i]
	hFanin *hist.Histogram                  // deliver_fanin
}

// phaseHists names the histogram each engine phase's durations feed. A
// Snapshot's per-phase totals and means are read back from them.
var phaseHists = [...]struct{ phase, hist string }{
	{"plan", "oracle_plan_ns"},
	{"emit", "phase_emit_ns"},
	{"deliver", "phase_deliver_ns"},
	{"round", "round_ns"},
}

// NewMetrics returns an empty Metrics.
func NewMetrics() *Metrics {
	m := &Metrics{hists: hist.NewRegistry()}
	for i, ph := range phaseHists {
		m.hPhase[i] = m.hists.Get(ph.hist)
	}
	m.hFanin = m.hists.Get("deliver_fanin")
	m.reset()
	return m
}

// Hist returns the registry of latency/size histograms this Metrics
// records into. Callers may register further histograms of their own; the
// registry is what telemetry exporters walk.
func (m *Metrics) Hist() *hist.Registry { return m.hists }

func (m *Metrics) reset() {
	m.runs, m.runErrors, m.rounds = 0, 0, 0
	m.emits, m.delivered, m.suspicions, m.crashes, m.decisions = 0, 0, 0, 0, 0
	m.roundsToDecision = make(map[int]int64)
	m.dsetSizes = make(map[int]int64)
	m.suspicionsPerRound = make(map[int]int64)
	m.suspectedCounts = make(map[int]int64)
	m.events = make(map[string]int64)
	// The registry is cleared in place, never replaced: histograms that
	// campaigns and pool meters resolved against it stay live across Reset.
	m.hists.Reset()
}

// Reset clears every counter and histogram.
func (m *Metrics) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reset()
}

// Observe implements Observer. A phase's duration feeds its histogram,
// zero included, so a phase's count is the number of times it ran.
// Deliver carries |D(p,r)| for the cardinality counts; Suspect records
// what only the member list can tell: which processes are suspected,
// counted per target across every (observer, round) pair. A substrate
// event is counted by kind, and no field of it is read.
func (m *Metrics) Observe(e Event) {
	switch e.Kind {
	case Phase:
		for i, ph := range phaseHists {
			if ph.phase == e.Phase {
				m.hPhase[i].Record(int64(e.Dur))
				return
			}
		}
		return
	case Suspect:
		if len(e.Members) == 0 {
			return
		}
	case RunEnd:
		if e.Err == nil {
			return
		}
	case Deliver:
		m.hFanin.Record(int64(e.N))
	}
	m.mu.Lock()
	switch e.Kind {
	case RunStart:
		m.runs++
	case RoundStart:
		m.rounds++
	case Emit:
		m.emits++
	case Deliver:
		m.delivered += int64(e.N)
		m.suspicions += int64(e.M)
		m.dsetSizes[e.M]++
		m.suspicionsPerRound[e.R] += int64(e.M)
	case Suspect:
		for _, q := range e.Members {
			m.suspectedCounts[q]++
		}
	case Crash:
		m.crashes += int64(len(e.Members))
	case Decide:
		m.decisions++
		m.roundsToDecision[e.R]++
	case RunEnd:
		m.runErrors++
	default:
		m.events[e.Kind]++
	}
	m.mu.Unlock()
}

var _ Observer = (*Metrics)(nil)

// Snapshot is a point-in-time copy of a Metrics, shaped for JSON.
// Histogram maps are keyed by the integer rendered as a decimal string
// (encoding/json requires string keys).
type Snapshot struct {
	// Runs and RunErrors count engine executions observed and how many
	// ended in error.
	Runs      int64 `json:"runs"`
	RunErrors int64 `json:"run_errors"`

	// Rounds is the total rounds executed across runs.
	Rounds int64 `json:"rounds"`

	// Emits and MessagesDelivered count emit events and Σ|S(i,r)|.
	Emits             int64 `json:"emits"`
	MessagesDelivered int64 `json:"messages_delivered"`

	// SuspicionsTotal is Σ_{i,r} |D(i,r)|; Crashes counts real crashes;
	// Decisions counts first decisions.
	SuspicionsTotal int64 `json:"suspicions_total"`
	Crashes         int64 `json:"crashes"`
	Decisions       int64 `json:"decisions"`

	// RoundsToDecision maps decision round → number of processes that
	// first decided in that round.
	RoundsToDecision map[int]int64 `json:"rounds_to_decision"`

	// DSetSizeHist maps |D(i,r)| → number of (process, round) pairs with
	// a suspect set of that size.
	DSetSizeHist map[int]int64 `json:"dset_size_hist"`

	// SuspicionsPerRound maps round → Σ_i |D(i,r)| summed across runs.
	SuspicionsPerRound map[int]int64 `json:"suspicions_per_round"`

	// SuspectedCounts maps process → how many times it appeared in some
	// D(i,r) across runs — who gets suspected, where SuspicionsPerRound
	// only says how much. Omitted when no suspicion named a process.
	SuspectedCounts map[int]int64 `json:"suspected_counts,omitempty"`

	// PhaseNanos and PhaseMeanNanos report total and mean wall time per
	// engine phase ("plan" — one oracle.Plan call — "emit", "deliver" and
	// their sum "round"), read from the phase histograms.
	PhaseNanos     map[string]int64   `json:"phase_ns"`
	PhaseMeanNanos map[string]float64 `json:"phase_mean_ns"`

	// Events counts protocol-level events by kind.
	Events map[string]int64 `json:"events,omitempty"`

	// Hist carries the frozen latency/size histograms (quantile
	// summaries in JSON); omitted when nothing was recorded.
	Hist map[string]hist.Snap `json:"hist,omitempty"`
}

// Snapshot returns a consistent copy of the current state.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Runs:               m.runs,
		RunErrors:          m.runErrors,
		Rounds:             m.rounds,
		Emits:              m.emits,
		MessagesDelivered:  m.delivered,
		SuspicionsTotal:    m.suspicions,
		Crashes:            m.crashes,
		Decisions:          m.decisions,
		RoundsToDecision:   copyIntMap(m.roundsToDecision),
		DSetSizeHist:       copyIntMap(m.dsetSizes),
		SuspicionsPerRound: copyIntMap(m.suspicionsPerRound),
		SuspectedCounts:    copyIntMap(m.suspectedCounts),
		PhaseNanos:         make(map[string]int64, len(phaseHists)),
		PhaseMeanNanos:     make(map[string]float64, len(phaseHists)),
	}
	hs := m.hists.Snapshot()
	for _, ph := range phaseHists {
		if h, ok := hs[ph.hist]; ok {
			s.PhaseNanos[ph.phase] = h.Sum
			s.PhaseMeanNanos[ph.phase] = h.Mean()
		}
	}
	if len(m.events) > 0 {
		s.Events = make(map[string]int64, len(m.events))
		for k, v := range m.events {
			s.Events[k] = v
		}
	}
	if len(hs) > 0 {
		s.Hist = hs
	}
	return s
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

func copyIntMap(src map[int]int64) map[int]int64 {
	dst := make(map[int]int64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}
