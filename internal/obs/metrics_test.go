package obs

import (
	"encoding/json"
	"errors"
	"strings"
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
	if s.OraclePlanMeanNanos != 200 {
		t.Fatalf("oracle plan mean: %v", s.OraclePlanMeanNanos)
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

// TestMetricsFaultCounters checks that faultnet.* and rlink.* events feed
// the FaultSnapshot, split by cause, and that fault-free snapshots omit it.
func TestMetricsFaultCounters(t *testing.T) {
	m := NewMetrics()
	if m.Snapshot().Faults != nil {
		t.Fatal("fault-free snapshot should omit Faults")
	}
	m.Event("faultnet.drop", -1, 0, map[string]any{"reason": "drop"})
	m.Event("faultnet.drop", -1, 0, map[string]any{"reason": "drop"})
	m.Event("faultnet.drop", -1, 1, map[string]any{"reason": "omission"})
	m.Event("faultnet.drop", -1, 2, map[string]any{"reason": "partition"})
	m.Event("faultnet.dup", -1, 0, nil)
	m.Event("faultnet.delay", -1, 0, nil)
	m.Event("faultnet.partition_span", -1, -1, nil)
	m.Event("rlink.retransmit", -1, 0, nil)
	m.Event("rlink.retransmit", -1, 0, nil)
	m.Event("rlink.retransmit", -1, 0, nil)
	m.Event("rlink.dup_rx", -1, 1, nil)
	m.Event("rlink.giveup", -1, 0, nil)
	m.Event("rlink.watchdog", -1, 2, nil)

	f := m.Snapshot().Faults
	if f == nil {
		t.Fatal("Faults missing from snapshot")
	}
	want := FaultSnapshot{
		Drops: 2, Omissions: 1, PartitionDrops: 1,
		PartitionSpans: 1, Duplicates: 1, Delays: 1,
		Retransmissions: 3, DupFramesReceived: 1, GiveUps: 1,
		WatchdogStalls: 1,
	}
	if *f != want {
		t.Fatalf("faults = %+v, want %+v", *f, want)
	}

	b, err := m.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"faults"`) || !strings.Contains(string(b), `"retransmissions": 3`) {
		t.Fatalf("JSON lacks fault counters:\n%s", b)
	}

	m.Reset()
	if m.Snapshot().Faults != nil {
		t.Fatal("Reset did not clear fault counters")
	}
}

func TestMetricsRecoveryCounters(t *testing.T) {
	m := NewMetrics()
	if m.Snapshot().Recovery != nil {
		t.Fatal("recovery-free snapshot should omit Recovery")
	}
	m.Event("msgnet.restart", -1, 0, map[string]any{"step": 42, "incarnation": 2})
	m.Event("recovery.recover", 2, 0, map[string]any{"replayed_rounds": 2, "lost_records": 3, "resume_round": 3})
	m.Event("recovery.rejoin", 5, 0, map[string]any{"round": 5})
	m.Event("recovery.resume", 3, -1, map[string]any{"replayed_rounds": 3, "truncated_bytes": int64(17)})

	r := m.Snapshot().Recovery
	if r == nil {
		t.Fatal("Recovery missing from snapshot")
	}
	want := RecoverySnapshot{
		Restarts: 1, Recoveries: 1, Rejoins: 1,
		ReplayedRounds: 2, LostRecords: 3,
		Resumes: 1, ResumeReplayedRounds: 3, TruncatedBytes: 17,
	}
	if *r != want {
		t.Fatalf("recovery = %+v, want %+v", *r, want)
	}

	b, err := m.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"recovery"`) || !strings.Contains(string(b), `"resume_replayed_rounds": 3`) {
		t.Fatalf("JSON lacks recovery counters:\n%s", b)
	}

	m.Reset()
	if m.Snapshot().Recovery != nil {
		t.Fatal("Reset did not clear recovery counters")
	}
}

// TestMetricsMCCounters checks that mc.* events feed the MCSnapshot and
// that exploration-free snapshots omit it.
func TestMetricsMCCounters(t *testing.T) {
	m := NewMetrics()
	if m.Snapshot().MC != nil {
		t.Fatal("mc-free snapshot should omit MC")
	}
	m.Event("mc.schedule", -1, -1, map[string]any{"depth": 3})
	m.Event("mc.schedule", -1, -1, map[string]any{"depth": 4})
	m.Event("mc.sample", -1, -1, map[string]any{"depth": 4})
	m.Event("mc.prune", -1, -1, map[string]any{"depth": 2})
	m.Event("mc.violation", -1, -1, map[string]any{"choices": "c1:4", "len": 1})
	m.Event("mc.done", -1, -1, map[string]any{
		"schedules": 2, "pruned": 1, "sampled": 1,
		"max_depth": 4, "symmetry_skips": 5, "sleep_skips": 6,
	})

	mc := m.Snapshot().MC
	if mc == nil {
		t.Fatal("MC missing from snapshot")
	}
	want := MCSnapshot{
		Explorations: 1, Schedules: 2, Sampled: 1, Pruned: 1,
		SymmetrySkips: 5, SleepSkips: 6, Violations: 1, MaxDepth: 4,
	}
	if *mc != want {
		t.Fatalf("mc = %+v, want %+v", *mc, want)
	}

	b, err := m.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"mc"`) || !strings.Contains(string(b), `"schedules": 2`) {
		t.Fatalf("JSON lacks mc counters:\n%s", b)
	}

	m.Reset()
	if m.Snapshot().MC != nil {
		t.Fatal("Reset did not clear mc counters")
	}
}

// TestMetricsNetCounters checks that netsub.* and sockchaos.* events feed
// the NetSnapshot, that netsub.watchdog counts as a watchdog stall, and
// that network-free snapshots omit the block.
func TestMetricsNetCounters(t *testing.T) {
	m := NewMetrics()
	if m.Snapshot().Net != nil {
		t.Fatal("network-free snapshot should omit Net")
	}
	m.Event("netsub.conn_open", -1, 0, map[string]any{"peer": 1, "dir": "out"})
	m.Event("netsub.conn_open", -1, 1, map[string]any{"peer": 0, "dir": "in"})
	m.Event("netsub.conn_close", -1, 0, map[string]any{"peer": 1, "dir": "out", "reason": "eof"})
	m.Event("netsub.dial_fail", -1, 0, map[string]any{"peer": 1, "err": "refused"})
	m.Event("netsub.dial_fail", -1, 0, map[string]any{"peer": 1, "err": "refused"})
	m.Event("netsub.reconnect", -1, 0, map[string]any{"peer": 1})
	m.Event("netsub.hello", -1, 1, map[string]any{"peer": 0, "incarnation": 1})
	m.Event("netsub.backpressure", -1, 0, map[string]any{"peer": 1, "cap": 64})
	m.Event("netsub.evict", -1, 0, map[string]any{"peer": 2, "strikes": 4})
	m.Event("netsub.frame_error", -1, 1, map[string]any{"reason": "bad hello"})
	m.Event("netsub.watchdog", 3, 0, map[string]any{"missing": 2})
	m.Event("sockchaos.drop", -1, -1, map[string]any{"from": 0, "frame": 7})
	m.Event("sockchaos.delay", -1, -1, nil)
	m.Event("sockchaos.duplicate", -1, -1, nil)
	m.Event("sockchaos.reset", -1, -1, nil)

	s := m.Snapshot()
	if s.Net == nil {
		t.Fatal("Net missing from snapshot")
	}
	want := NetSnapshot{
		ConnsOpened: 2, ConnsClosed: 1, DialFailures: 2, Reconnects: 1,
		Hellos: 1, Backpressure: 1, Evictions: 1, FrameErrors: 1,
		SockDrops: 1, SockDelays: 1, SockDuplicates: 1, SockResets: 1,
	}
	if *s.Net != want {
		t.Fatalf("net = %+v, want %+v", *s.Net, want)
	}
	if s.Faults == nil || s.Faults.WatchdogStalls != 1 {
		t.Fatalf("netsub.watchdog should count as a watchdog stall: %+v", s.Faults)
	}

	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"net"`) || !strings.Contains(string(b), `"dial_failures": 2`) {
		t.Fatalf("JSON lacks net counters:\n%s", b)
	}

	m.Reset()
	if m.Snapshot().Net != nil {
		t.Fatal("Reset did not clear net counters")
	}
}

func TestMetricsServeCounters(t *testing.T) {
	m := NewMetrics()
	if m.Snapshot().Serve != nil {
		t.Fatal("service-free snapshot should omit Serve")
	}
	m.Event("serve.decide", -1, 0, map[string]any{"gathered": 2})
	m.Event("serve.decide", -1, 1, map[string]any{"gathered": 2})
	m.Event("serve.adopt", -1, 2, nil)
	m.Event("serve.dup", -1, 0, nil)
	m.Event("serve.dup", -1, 0, nil)
	m.Event("serve.shed", -1, 0, map[string]any{"inflight": 64})
	m.Event("serve.shed", -1, 1, map[string]any{"inflight": 64, "peer": true})
	m.Event("serve.abstain", -1, 0, map[string]any{"gathered": 1, "need": 2})
	m.Event("serve.evict_instance", -1, 0, map[string]any{"gathered": 1})
	m.Event("serve.recover", -1, 2, map[string]any{"incarnation": 2, "decisions": 5, "proposals": 7})
	m.Event("serve.crash", -1, 2, map[string]any{"acked": 3})
	m.Event("serve.bad_peer_msg", -1, 1, map[string]any{"err": "short frame"})

	s := m.Snapshot()
	if s.Serve == nil {
		t.Fatal("Serve missing from snapshot")
	}
	want := ServeSnapshot{
		Decisions: 3, Adoptions: 1, IdempotentReplays: 2,
		Sheds: 2, PeerSheds: 1, Abstains: 1, InstanceEvictions: 1,
		Recoveries: 1, RecoveredDecisions: 5, Crashes: 1, BadPeerMsgs: 1,
	}
	if *s.Serve != want {
		t.Fatalf("serve = %+v, want %+v", *s.Serve, want)
	}

	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"serve"`) || !strings.Contains(string(b), `"recovered_decisions": 5`) {
		t.Fatalf("JSON lacks serve counters:\n%s", b)
	}

	m.Reset()
	if m.Snapshot().Serve != nil {
		t.Fatal("Reset did not clear serve counters")
	}
}
