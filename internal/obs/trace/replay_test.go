package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/hoalg"
	"repro/internal/mc"
	"repro/internal/obs/trace"
)

// TestChaosViolationReplayTrace finds a real safety violation with the
// deliberately broken quorum rule, then replays its minimized reproducer
// under a Tracer twice: both exports must validate as Perfetto JSON and
// be byte-identical — a violation replay is a shareable artifact.
func TestChaosViolationReplayTrace(t *testing.T) {
	cfg := chaos.Config{
		N: 6, F: 2, K: 3,
		Runs:          60,
		Seed:          13,
		DropRate:      1.0,
		OmitRate:      0.8,
		PartitionRate: 0.6,
		WatchdogSteps: 300,
		QuorumBug:     true,
	}
	sum := chaos.Run(cfg)
	if sum.Ok() {
		t.Fatal("quorum bug not caught; no violation to replay")
	}
	v := sum.Violations[0]

	replayOnce := func() []byte {
		tr := trace.New()
		replay := cfg
		replay.Observer = tr
		if _, _, _, err := chaos.Execute(replay, v.SchedSeed, v.MinPlan, v.Crashes); err != nil {
			t.Fatalf("replay failed: %v", err)
		}
		data, err := tr.Perfetto()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	first := replayOnce()
	validatePerfetto(t, first)
	if again := replayOnce(); !bytes.Equal(first, again) {
		t.Fatal("chaos violation replay traces differ across reruns of the same seed")
	}
}

// TestMCCounterexampleReplayTrace explores the planted quorum bug to a
// shrunk counterexample, then replays its choice string under a Tracer
// twice: valid Perfetto JSON, byte-identical across reruns.
func TestMCCounterexampleReplayTrace(t *testing.T) {
	enum, err := hoalg.PerRound(1).CompileEnum(3)
	if err != nil {
		t.Fatal(err)
	}
	spec := mc.RunSpec{
		N:       3,
		Inputs:  []core.Value{0, 1, 2},
		Factory: agreement.QuorumKSetBuggy(1),
		Oracle: func(ctx *mc.Ctx) core.Oracle {
			return adversary.Enumerated(ctx, 3, enum)
		},
		Props: []mc.Property{
			mc.Validity([]core.Value{0, 1, 2}),
			mc.KAgreement(2),
		},
	}
	res, err := mc.Explore(mc.Options{}, mc.CheckRun(spec))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counterexample == nil {
		t.Fatal("planted bug not found; no counterexample to replay")
	}
	choices := res.Counterexample.Choices

	replayOnce := func() []byte {
		tr := trace.New()
		traced := spec
		traced.Observer = tr
		if err := mc.Replay(choices, mc.CheckRun(traced)); err == nil {
			t.Fatal("counterexample replay did not reproduce the violation")
		}
		data, err := tr.Perfetto()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	first := replayOnce()
	validatePerfetto(t, first)
	if again := replayOnce(); !bytes.Equal(first, again) {
		t.Fatal("mc counterexample replay traces differ across reruns of the same choice string")
	}
}
