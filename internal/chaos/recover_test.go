package chaos

import (
	"testing"
)

// TestRecoverCampaignClean is the acceptance gate: 100 seeded executions
// with crash-and-recover faults, every one audited for trace structure,
// per-round budget, validity, k-agreement and decision durability — zero
// violations, and the faults actually exercised the recovery machinery.
func TestRecoverCampaignClean(t *testing.T) {
	sum := RunRecover(RecoverConfig{Runs: 100, Seed: 42})
	if !sum.Ok() {
		t.Fatalf("campaign found violations:\n%s", sum)
	}
	if sum.Crashes == 0 || sum.Restarts == 0 {
		t.Fatalf("campaign injected no recovery faults: %s", sum)
	}
	if sum.Rejoins == 0 {
		t.Fatalf("no restarted process ever rejoined: %s", sum)
	}
	if sum.LostRecords == 0 {
		t.Fatalf("no crash ever destroyed un-flushed state — the amnesia window never opened: %s", sum)
	}
	if sum.Decided == 0 {
		t.Fatalf("nobody decided in %d runs: %s", sum.Runs, sum)
	}
}

// TestRecoverCampaignOfOneProcess: a lone process clamps F to 0, so the
// campaign draws no crash — it runs and returns instead of asking the
// generator for a crash count below zero.
func TestRecoverCampaignOfOneProcess(t *testing.T) {
	sum := RunRecover(RecoverConfig{N: 1, Runs: 1})
	if !sum.Ok() || sum.Crashes != 0 || sum.Decided != 1 {
		t.Fatalf("one-process campaign: %s", sum)
	}
}

// TestRecoverCampaignUnderLinkFaults layers message drops and delays on top
// of crash-and-recover: still zero safety violations (abstention is the
// permitted degradation).
func TestRecoverCampaignUnderLinkFaults(t *testing.T) {
	sum := RunRecover(RecoverConfig{
		Runs:      40,
		Seed:      7,
		DropRate:  0.15,
		DelayRate: 0.2,
	})
	if !sum.Ok() {
		t.Fatalf("campaign found violations:\n%s", sum)
	}
	if sum.Restarts == 0 {
		t.Fatalf("no restarts: %s", sum)
	}
}

// TestRecoverCampaignCatchesAmnesiaBug plants the bug — recovered processes
// deciding from pre-crash un-flushed state — and checks the audit catches it
// and that the reported violation replays deterministically.
func TestRecoverCampaignCatchesAmnesiaBug(t *testing.T) {
	cfg := RecoverConfig{Runs: 60, Seed: 42, AmnesiaBug: true}
	sum := RunRecover(cfg)
	if sum.Ok() {
		t.Fatalf("campaign missed the planted amnesia bug: %s", sum)
	}
	v := sum.Violations[0]
	if v.Kind != "durability" && v.Kind != "k-agreement" && v.Kind != "validity" {
		t.Fatalf("unexpected violation kind %q: %s", v.Kind, v)
	}

	// The violation's recipe must reproduce it exactly.
	out, err := ExecuteRecover(cfg, v.Scenario)
	replayed := checkRecover(cfg, out, err)
	if len(replayed) == 0 {
		t.Fatalf("violation did not replay from its recipe: %s", v)
	}
	if replayed[0].Kind != v.Kind || replayed[0].Detail != v.Detail {
		t.Fatalf("replay diverged: got %s/%s, want %s/%s",
			replayed[0].Kind, replayed[0].Detail, v.Kind, v.Detail)
	}

	// The same scenarios run honestly are clean: the bug, not the faults,
	// is what the audit caught.
	honest := cfg
	honest.AmnesiaBug = false
	hsum := RunRecover(honest)
	if !hsum.Ok() {
		t.Fatalf("honest campaign on the same seeds found violations:\n%s", hsum)
	}
}
