package chaos

import "testing"

// The goldens below were recorded before the four round runners and the
// five decision folds collapsed onto msgnet.RunSubstrateRounds and
// agreement.QuorumMin. A summary is a pure function of the seed, so any
// other string means the round loop, the links, the journal or the
// decision rule changed behaviour.

// TestGoldenCampaign pins chunk 0 of the bench/sim.go fault campaign
// (its chaosGolden), which tier-1 would otherwise never run.
func TestGoldenCampaign(t *testing.T) {
	const want = "chaos: 250 runs, 0 violations, 1277 decided, 223 undecided, 47 stalls, 91723 retransmissions, 0 give-ups, 343652 steps"
	got := Run(Config{
		N: 6, F: 2, K: 3,
		Runs:      250,
		Seed:      1000004,
		DropRate:  0.3,
		DupRate:   0.3,
		DelayRate: 0.4, OmitRate: 0.4, PartitionRate: 0.5,
		MaxCrashes: 2,
		Workers:    1,
	}).String()
	if got != want {
		t.Fatalf("campaign summary\n got %q\nwant %q", got, want)
	}
}

// TestGoldenRecoverCampaign pins a crash-and-recover campaign with link
// faults, so catch-up skips and amnesia windows both occur.
func TestGoldenRecoverCampaign(t *testing.T) {
	const want = "chaos-recover: 120 runs, 0 violations, 482 decided, 118 undecided, 120 crashes, 97 restarts, 43 rejoins, 272 replayed rounds, 77 lost records, 115657 steps"
	got := RunRecover(RecoverConfig{
		N: 5, F: 1,
		Runs:     120,
		Seed:     42,
		DropRate: 0.15, DelayRate: 0.2,
		Workers: 1,
	}).String()
	if got != want {
		t.Fatalf("recover summary\n got %q\nwant %q", got, want)
	}
}
