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
	m.RunStart(4)
	m.RoundStart(1, 4)
	for p := 0; p < 4; p++ {
		m.Emit(1, p)
	}
	m.Deliver(1, 0, 3, 1)
	m.Deliver(1, 1, 4, 0)
	m.Deliver(1, 2, 3, 1)
	m.Deliver(1, 3, 3, 1)
	m.Crash(1, []int{3})
	m.Decide(1, 0)
	m.Decide(1, 1)
	m.Phase(1, "plan", 100*time.Nanosecond)
	m.Phase(1, "plan", 300*time.Nanosecond)
	m.Phase(1, "emit", 0)
	m.Event("agreement.kset_choose", 1, 0, nil)
	m.RunEnd(1, 2, nil)

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

	m.RunEnd(1, 0, errors.New("boom"))
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
	m.RunStart(3)
	m.RoundStart(1, 3)
	m.Deliver(1, 0, 2, 1)
	m.Decide(2, 0)
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

// TestMetricsConcurrent hammers every hook from many goroutines; run with
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
				m.RunStart(4)
				m.RoundStart(i, 4)
				m.Emit(i, w)
				m.Deliver(i, w, 3, 1)
				m.Suspect(i, w, []int{0})
				m.Crash(i, []int{1, 2})
				m.Decide(i, w)
				m.Phase(i, "plan", time.Nanosecond)
				m.Event("k", i, w, nil)
				m.RunEnd(i, 1, nil)
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
	m.Event("faultnet.drop", -1, 0, map[string]any{"reason": "omission"})
	m.Event("faultnet.drop", -1, 1, map[string]any{"reason": "partition"})
	m.Event("rlink.retransmit", -1, 0, map[string]any{"interval": 8})
	m.Event("serve.shed", -1, 1, map[string]any{"inflight": 64, "peer": true})
	m.Event("mc.done", -1, -1, map[string]any{"max_depth": 4})

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
