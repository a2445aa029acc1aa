package recovery

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/obs"
)

func TestMemJournalDurabilityClasses(t *testing.T) {
	var j MemJournal
	v1 := map[core.PID]int{0: 3, 1: 1}
	j.LogEmit(1, 3)
	j.LogView(1, v1, core.SetOf(3, 2))
	j.LogEmit(2, 1)

	// Emits are write-through; the view is still volatile.
	st := j.Recover()
	if st.Round != 2 || !st.HasEst || st.Est != 1 || st.LastView != nil {
		t.Fatalf("durable state before flush: %+v", st)
	}
	un := j.Unflushed()
	if un.LastViewRound != 1 || len(un.LastView) != 2 {
		t.Fatalf("unflushed state missing the view: %+v", un)
	}

	// A crash destroys the volatile view; a flush would have saved it.
	j.Crash()
	st = j.Recover()
	if st.LastView != nil || st.Round != 2 || st.Est != 1 {
		t.Fatalf("post-crash state: %+v", st)
	}
	if j.Lost != 1 {
		t.Fatalf("lost %d records, want 1", j.Lost)
	}

	j.LogView(2, v1, core.SetOf(3, 2))
	j.Flush()
	j.Crash()
	st = j.Recover()
	if st.LastViewRound != 2 {
		t.Fatalf("flushed view lost: %+v", st)
	}
}

func TestRunRoundsFaultFree(t *testing.T) {
	const n, f, rounds = 4, 1, 3
	out, err := RunRounds(n, f, rounds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != n {
		t.Fatalf("%d of %d processes decided: %v", len(out.Decisions), n, out.Decisions)
	}
	if err := Audit(out, n, f, rounds); err != nil {
		t.Fatalf("audit: %v", err)
	}
	// No recovery happened, so the stricter fail-stop validation also holds.
	if err := out.Trace.ValidateFailStop(); err != nil {
		t.Fatalf("fail-stop validation: %v", err)
	}
	if out.Restarted.Count() != 0 || out.Rejoined.Count() != 0 {
		t.Fatalf("phantom restarts: restarted=%s rejoined=%s", out.Restarted, out.Rejoined)
	}
}

// TestCrashRecoverRejoin is the tentpole scenario: p0 crashes mid-run, the
// supervisor restarts it, it recovers from its durable journal, re-enters via
// suspicion (it appears in peers' D sets while down) and catches back up.
func TestCrashRecoverRejoin(t *testing.T) {
	const n, f, rounds = 5, 1, 6
	metrics := obs.NewMetrics()
	cfg := Config{
		Net: msgnet.Config{
			Crash:    map[core.PID]int{0: 7},
			Restart:  map[core.PID]int{0: 30},
			Observer: metrics,
		},
		FlushEvery: 3, // leave a real amnesia window
	}
	out, err := RunRounds(n, f, rounds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Restarted.Has(0) {
		t.Fatalf("p0 not restarted: %s", out.Restarted)
	}
	if !out.Rejoined.Has(0) {
		t.Fatalf("p0 never rejoined: rejoined=%s decisions=%v trace:\n%s",
			out.Rejoined, out.Decisions, out.Trace)
	}
	if err := Audit(out, n, f, rounds); err != nil {
		t.Fatalf("audit: %v", err)
	}

	// Re-entry via suspicion: while p0 was down some peer's D(j,r) named it,
	// and p0's Active membership is non-monotone (out, then back in).
	suspectedWhileDown := false
	sawGap := false
	wasOut := false
	for r := 1; r <= out.Trace.Len(); r++ {
		rec := out.Trace.Round(r)
		if !rec.Active.Has(0) {
			wasOut = true
			rec.Active.ForEach(func(p core.PID) {
				if rec.Suspects[p].Has(0) {
					suspectedWhileDown = true
				}
			})
		} else if wasOut {
			sawGap = true
		}
	}
	if !suspectedWhileDown {
		t.Fatalf("no peer suspected p0 while it was down:\n%s", out.Trace)
	}
	if !sawGap {
		t.Fatalf("p0's Active membership is monotone — it never left and returned:\n%s", out.Trace)
	}
	// This trace must pass the structural check and fail the fail-stop one.
	if err := out.Trace.Validate(); err != nil {
		t.Fatalf("structural validation: %v", err)
	}
	if err := out.Trace.ValidateFailStop(); err == nil {
		t.Fatal("a recovery trace with a rejoin passed fail-stop validation")
	}
	if out.Replayed[0] < 1 {
		t.Fatalf("p0 replayed %d journaled rounds, want >= 1", out.Replayed[0])
	}

	// The event stream carried one restart, recovery and rejoin.
	events := metrics.Snapshot().Events
	for _, kind := range []string{"msgnet.restart", "recovery.recover", "recovery.rejoin"} {
		if events[kind] != 1 {
			t.Fatalf("%d %s events, want 1: %v", events[kind], kind, events)
		}
	}
}

// TestRecoveredProcessAbstains: a process restarted after everyone else has
// finished cannot assemble any quorum again; it must abstain, not decide
// from stale state.
func TestRecoveredProcessAbstains(t *testing.T) {
	const n, f, rounds = 4, 1, 3
	cfg := Config{
		Net: msgnet.Config{
			Crash:   map[core.PID]int{0: 5},
			Restart: map[core.PID]int{0: 200000},
		},
		WatchdogSteps: 64,
	}
	out, err := RunRounds(n, f, rounds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Restarted.Has(0) {
		t.Fatalf("p0 not restarted: %s", out.Restarted)
	}
	if _, decided := out.Decisions[0]; decided {
		t.Fatalf("stranded recovered process decided: %v", out.Decisions)
	}
	if err := Audit(out, n, f, rounds); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestAmnesiaBugCaught plants the bug — a recovered process deciding from
// its pre-crash un-flushed view — and checks the audit flags it as a
// durability violation.
func TestAmnesiaBugCaught(t *testing.T) {
	const n, f, rounds = 5, 1, 4
	cfg := Config{
		Net: msgnet.Config{
			Crash:   map[core.PID]int{0: 11}, // after round 1 completes
			Restart: map[core.PID]int{0: 200000},
		},
		FlushEvery:    10, // round-1 view stays volatile
		WatchdogSteps: 64,
		AmnesiaBug:    true,
	}
	out, err := RunRounds(n, f, rounds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, decided := out.Decisions[0]
	if !decided {
		t.Fatalf("buggy process did not decide; lost=%v decisions=%v", out.Lost, out.Decisions)
	}
	if out.Lost[0] == 0 {
		t.Fatalf("crash destroyed no journal records — no amnesia window opened")
	}
	auditErr := Audit(out, n, f, rounds)
	var ae *AuditError
	if !errors.As(auditErr, &ae) || ae.Kind != "durability" || ae.Proc != 0 {
		t.Fatalf("audit returned %v, want a durability violation at p0 (decision %d)", auditErr, d)
	}

	// The honest configuration on the identical schedule is clean.
	honest := cfg
	honest.AmnesiaBug = false
	hout, err := RunRounds(n, f, rounds, honest)
	if err != nil {
		t.Fatal(err)
	}
	if err := Audit(hout, n, f, rounds); err != nil {
		t.Fatalf("honest run failed audit: %v", err)
	}
}
