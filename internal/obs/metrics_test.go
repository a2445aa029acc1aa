package obs

import (
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestMetricsAggregates(t *testing.T) {
	m := NewMetrics()
	m.Observe(Event{Kind: RunStart, R: -1, P: -1, N: 4})
	m.Observe(Event{Kind: RoundStart, R: 1, P: -1, N: 4})
	for p := 0; p < 4; p++ {
		m.Observe(Event{Kind: Emit, R: 1, P: p})
	}
	m.Observe(Event{Kind: Deliver, R: 1, P: 0, N: 3, M: 1})
	m.Observe(Event{Kind: Deliver, R: 1, P: 1, N: 4, M: 0})
	m.Observe(Event{Kind: Deliver, R: 1, P: 2, N: 3, M: 1})
	m.Observe(Event{Kind: Deliver, R: 1, P: 3, N: 3, M: 1})
	m.Observe(Event{Kind: Crash, R: 1, P: -1, Members: []int{3}})
	m.Observe(Event{Kind: Decide, R: 1, P: 0})
	m.Observe(Event{Kind: Decide, R: 1, P: 1})
	m.Observe(Event{Kind: Phase, R: 1, P: -1, Phase: "plan", Dur: 100 * time.Nanosecond})
	m.Observe(Event{Kind: Phase, R: 1, P: -1, Phase: "plan", Dur: 300 * time.Nanosecond})
	m.Observe(Event{Kind: Phase, R: 1, P: -1, Phase: "emit"})
	m.Observe(Event{Kind: "agreement.kset_choose", R: 1, P: 0})
	m.Observe(Event{Kind: RunEnd, R: -1, P: -1, N: 1, M: 2})

	s := m.Snapshot()
	if s.Runs != 1 || s.Rounds != 1 || s.Emits != 4 {
		t.Fatalf("runs/rounds/emits: %+v", s)
	}
	if s.MessagesDelivered != 13 || s.SuspicionsTotal != 3 {
		t.Fatalf("delivered=%d suspicions=%d", s.MessagesDelivered, s.SuspicionsTotal)
	}
	if s.Crashes != 1 || s.Decisions != 2 || s.RunErrors != 0 {
		t.Fatalf("crashes/decisions/errors: %+v", s)
	}
	if s.RoundsToDecision[1] != 2 {
		t.Fatalf("rounds_to_decision: %v", s.RoundsToDecision)
	}
	if s.DSetSizeHist[1] != 3 || s.DSetSizeHist[0] != 1 {
		t.Fatalf("dset_size_hist: %v", s.DSetSizeHist)
	}
	if s.SuspicionsPerRound[1] != 3 {
		t.Fatalf("suspicions_per_round: %v", s.SuspicionsPerRound)
	}
	if s.PhaseNanos["plan"] != 400 || s.PhaseMeanNanos["plan"] != 200 {
		t.Fatalf("phase plan: %v %v", s.PhaseNanos, s.PhaseMeanNanos)
	}
	// A zero duration (an untimed or injected clock) still counts as a run
	// of its phase, in the totals and in the histogram alike.
	if ns, ok := s.PhaseNanos["emit"]; !ok || ns != 0 || s.Hist["phase_emit_ns"].Count != 1 {
		t.Fatalf("zero-length emit phase: totals %v, hist %+v", s.PhaseNanos, s.Hist["phase_emit_ns"])
	}
	if s.Hist["oracle_plan_ns"].Sum != s.PhaseNanos["plan"] {
		t.Fatalf("plan total %d, histogram sum %d", s.PhaseNanos["plan"], s.Hist["oracle_plan_ns"].Sum)
	}
	if s.Events["agreement.kset_choose"] != 1 {
		t.Fatalf("events: %v", s.Events)
	}

	m.Observe(Event{Kind: RunEnd, R: -1, P: -1, N: 1, Err: errors.New("boom")})
	if got := m.Snapshot().RunErrors; got != 1 {
		t.Fatalf("run_errors = %d", got)
	}

	m.Reset()
	if s := m.Snapshot(); s.Runs != 0 || s.SuspicionsTotal != 0 || len(s.DSetSizeHist) != 0 {
		t.Fatalf("reset left state: %+v", s)
	}
}

func TestMetricsSnapshotJSON(t *testing.T) {
	m := NewMetrics()
	m.Observe(Event{Kind: RunStart, R: -1, P: -1, N: 3})
	m.Observe(Event{Kind: RoundStart, R: 1, P: -1, N: 3})
	m.Observe(Event{Kind: Deliver, R: 1, P: 0, N: 2, M: 1})
	m.Observe(Event{Kind: Decide, R: 2, P: 0})
	b, err := m.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, b)
	}
	for _, key := range []string{"runs", "rounds", "suspicions_total", "rounds_to_decision", "dset_size_hist", "suspicions_per_round", "phase_ns"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("snapshot JSON missing %q:\n%s", key, b)
		}
	}
}

// TestMetricsConcurrent hammers every kind from many goroutines; run with
// -race this is the data-race check for the whole Metrics implementation.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	const workers = 8
	const iters = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Observe(Event{Kind: RunStart, R: -1, P: -1, N: 4})
				m.Observe(Event{Kind: RoundStart, R: i, P: -1, N: 4})
				m.Observe(Event{Kind: Emit, R: i, P: w})
				m.Observe(Event{Kind: Deliver, R: i, P: w, N: 3, M: 1})
				m.Observe(Event{Kind: Suspect, R: i, P: w, Members: []int{0}})
				m.Observe(Event{Kind: Crash, R: i, P: -1, Members: []int{1, 2}})
				m.Observe(Event{Kind: Decide, R: i, P: w})
				m.Observe(Event{Kind: Phase, R: i, P: -1, Phase: "plan", Dur: time.Nanosecond})
				m.Observe(Event{Kind: "k", R: i, P: w})
				m.Observe(Event{Kind: RunEnd, R: -1, P: -1, N: i, M: 1})
				if i%50 == 0 {
					_ = m.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	total := int64(workers * iters)
	if s.Runs != total || s.Emits != total || s.Decisions != total {
		t.Fatalf("lost updates: runs=%d emits=%d decisions=%d want %d", s.Runs, s.Emits, s.Decisions, total)
	}
	if s.SuspicionsTotal != total || s.Crashes != 2*total || s.Events["k"] != total {
		t.Fatalf("lost updates: suspicions=%d crashes=%d events=%d", s.SuspicionsTotal, s.Crashes, s.Events["k"])
	}
}

// TestMetricsCountsEventKinds: Metrics counts an event by its kind and
// reads none of its fields — each subsystem keeps its own counts — so
// events feed neither a histogram nor anything but Events.
func TestMetricsCountsEventKinds(t *testing.T) {
	m := NewMetrics()
	m.Observe(Event{Kind: "faultnet.drop", R: -1, P: 0, Fields: map[string]any{"reason": "omission"}})
	m.Observe(Event{Kind: "faultnet.drop", R: -1, P: 1, Fields: map[string]any{"reason": "partition"}})
	m.Observe(Event{Kind: "rlink.retransmit", R: -1, P: 0, Fields: map[string]any{"interval": 8}})
	m.Observe(Event{Kind: "serve.shed", R: -1, P: 1, Fields: map[string]any{"inflight": 64, "peer": true}})
	m.Observe(Event{Kind: "mc.done", R: -1, P: -1, Fields: map[string]any{"max_depth": 4}})

	s := m.Snapshot()
	want := map[string]int64{"faultnet.drop": 2, "rlink.retransmit": 1, "serve.shed": 1, "mc.done": 1}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("events = %v, want %v", s.Events, want)
	}
	if len(s.Hist) != 0 {
		t.Fatalf("event fields fed histograms: %v", s.Hist)
	}

	m.Reset()
	if s := m.Snapshot(); s.Events != nil {
		t.Fatalf("Reset left events: %v", s.Events)
	}
}
