package chaos

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/predicate"
)

// TestLossyLinksPreserveSafety is the headline acceptance run: 200 seeded
// executions of 6-process 2-resilient 3-set agreement under ≤30% drop plus
// delays and duplicates must complete via retransmission with zero safety
// violations.
func TestLossyLinksPreserveSafety(t *testing.T) {
	sum := Run(Config{
		N: 6, F: 2, K: 3,
		Runs:      200,
		Seed:      7,
		DropRate:  0.3,
		DelayRate: 0.3,
		DupRate:   0.2,
	})
	if !sum.Ok() {
		t.Fatalf("safety violated under lossy links:\n%s", sum)
	}
	if sum.Retransmissions == 0 {
		t.Fatal("200 lossy runs with zero retransmissions — faults were not injected")
	}
	if sum.Decided == 0 {
		t.Fatal("no process ever decided")
	}
}

// TestMixedFaultsPreserveSafety turns every fault class on at once —
// drops, duplicates, delays, send-omission, healing partitions, crashes —
// and still demands zero safety violations.
func TestMixedFaultsPreserveSafety(t *testing.T) {
	sum := Run(Config{
		N: 6, F: 2, K: 3,
		Runs:          120,
		Seed:          21,
		DropRate:      0.3,
		DupRate:       0.3,
		DelayRate:     0.4,
		OmitRate:      0.4,
		PartitionRate: 0.5,
		MaxCrashes:    2,
	})
	if !sum.Ok() {
		t.Fatalf("safety violated under mixed faults:\n%s", sum)
	}
}

// TestQuorumBugCaught plants a real agreement bug — deciding on sub-quorum
// views — and demands the harness catch it, hand back a replayable seed,
// and shrink the fault plan.
func TestQuorumBugCaught(t *testing.T) {
	cfg := Config{
		N: 6, F: 2, K: 3,
		Runs:          60,
		Seed:          13,
		DropRate:      1.0, // realized rate uniform in [0,1): some runs are brutal
		OmitRate:      0.8,
		PartitionRate: 0.6,
		WatchdogSteps: 300,
		QuorumBug:     true,
	}
	sum := Run(cfg)
	if sum.Ok() {
		t.Fatal("deliberately broken decision rule survived 60 hostile runs undetected")
	}
	v := sum.Violations[0]
	if v.Kind != "k-agreement" && v.Kind != "validity" {
		t.Fatalf("violation kind = %q, want an agreement-safety kind", v.Kind)
	}

	// The reported seed + minimized plan must replay to a violation.
	replay := cfg
	replay.Observer = nil
	out, rep, decisions, err := Execute(replay, v.SchedSeed, v.MinPlan, v.Crashes)
	if got := check(replay, predicate.PerRoundBudget(replay.F), runResult{out, rep.Stalled(), err, decisions}); len(got) == 0 {
		t.Fatalf("minimized reproducer did not replay: %s", v)
	}
	if len(v.MinPlan.Components) > len(v.Plan.Components) {
		t.Fatalf("minimization grew the plan: %d → %d components",
			len(v.Plan.Components), len(v.MinPlan.Components))
	}
}

// TestMinimizeReachesFixpoint checks that no single component of a
// minimized plan can be removed while preserving the failure.
func TestMinimizeReachesFixpoint(t *testing.T) {
	cfg := Config{
		N: 6, F: 2, K: 3,
		Runs:          40,
		Seed:          13,
		DropRate:      1.0,
		DupRate:       0.5,
		DelayRate:     0.5,
		OmitRate:      0.8,
		WatchdogSteps: 300,
		QuorumBug:     true,
	}
	sum := Run(cfg)
	if sum.Ok() {
		t.Skip("no violation found at this seed; fixpoint untestable")
	}
	v := sum.Violations[0]
	probe := cfg
	probe.Observer = nil
	for i := range v.MinPlan.Components {
		cand := v.MinPlan.WithoutComponent(i)
		out, rep, decisions, err := Execute(probe, v.SchedSeed, cand, v.Crashes)
		if len(check(probe, predicate.PerRoundBudget(probe.F), runResult{out, rep.Stalled(), err, decisions})) > 0 {
			t.Fatalf("component %d of the minimized plan is removable: %s", i, v.MinPlan)
		}
	}
}

// TestCampaignEventStreamDeterministic demands the strong reproducibility
// contract: the same campaign seed yields a byte-identical event log.
func TestCampaignEventStreamDeterministic(t *testing.T) {
	campaign := func() []byte {
		var buf bytes.Buffer
		Run(Config{
			N: 5, F: 1, K: 2,
			Runs:          12,
			Seed:          99,
			DropRate:      0.3,
			DelayRate:     0.3,
			DupRate:       0.3,
			PartitionRate: 0.4,
			MaxCrashes:    1,
			Observer:      obs.NewEventLog(&buf),
		})
		return buf.Bytes()
	}
	a, b := campaign(), campaign()
	if len(a) == 0 {
		t.Fatal("campaign produced no events")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same campaign seed diverged (%d vs %d bytes)", len(a), len(b))
	}
}

// TestRandomPlanRespectsBounds checks plan randomization stays below the
// configured rate ceilings and only uses enabled kinds.
func TestRandomPlanRespectsBounds(t *testing.T) {
	cfg := Config{N: 6, F: 2, K: 3, DropRate: 0.3, DelayRate: 0.2}
	for seed := int64(1); seed <= 50; seed++ {
		p := RandomPlan(cfg, seed)
		for _, c := range p.Components {
			switch c.Kind {
			case "drop":
				if c.Rate > 0.3 {
					t.Fatalf("seed %d: drop rate %v above bound", seed, c.Rate)
				}
			case "delay":
				if c.Rate > 0.2 {
					t.Fatalf("seed %d: delay rate %v above bound", seed, c.Rate)
				}
			default:
				t.Fatalf("seed %d: kind %s not enabled by config", seed, c.Kind)
			}
		}
	}
}
