package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lockStepConfig is `-chaos -model MODEL -n 5 -f 1 -k 2 -rounds 3 -seed 7`.
func lockStepConfig(model string, runs int) config {
	return config{model: model, chaos: true, n: 5, f: 1, k: 2, rounds: 3, seed: 7, runs: runs}
}

// TestChaosModelGolden pins what a -chaos -model campaign prints. The CLI
// compiles plan and checker from one expression, so neither campaign has a
// violation; the decided/undecided counts are the plan's doing (async's
// honest plan leaves every view at quorum, !atmost(1)'s two omitting
// senders leave only their own), and a lock-step run has no stalls,
// retransmissions, give-ups or steps to report. Same bytes at any -workers.
func TestChaosModelGolden(t *testing.T) {
	for model, want := range map[string]string{
		"async":      "chaos: 10 runs, 0 violations, 50 decided, 0 undecided, 0 stalls, 0 retransmissions, 0 give-ups, 0 steps\n",
		"!atmost(1)": "chaos: 10 runs, 0 violations, 20 decided, 30 undecided, 0 stalls, 0 retransmissions, 0 give-ups, 0 steps\n",
	} {
		for _, workers := range []int{1, 4} {
			cfg := lockStepConfig(model, 10)
			cfg.workers = workers
			var out bytes.Buffer
			if err := run(cfg, &out); err != nil {
				t.Fatalf("-model %s -workers %d: %v\n%s", model, workers, err, out.String())
			}
			if out.String() != want {
				t.Fatalf("-model %s -workers %d printed\n%swant\n%s", model, workers, out.String(), want)
			}
		}
	}
}

// TestValidateRejectsChaosModelCrashes: a crashed process would be a suspect
// the compiled plan never chose.
func TestValidateRejectsChaosModelCrashes(t *testing.T) {
	cfg := lockStepConfig("atmost(1)", 20)
	cfg.crashes = 1
	err := validate(cfg)
	if err == nil || !strings.Contains(err.Error(), "-model") || !strings.Contains(err.Error(), "-crashes") {
		t.Fatalf("validate(-chaos -model -crashes 1) = %v, want one line naming -model and -crashes", err)
	}
	cfg.chaos = false
	if err := validate(cfg); err != nil {
		t.Fatalf("-crashes without -chaos is inert and was accepted before: %v", err)
	}
}

// TestChaosModelEventsAreTheEngines: the events file of a lock-step campaign
// holds the engine's vocabulary — one round_start per run and round, the
// suspicions the plan authors — no substrate step, and no wall time: two
// invocations write the same bytes.
func TestChaosModelEventsAreTheEngines(t *testing.T) {
	once := func() ([]byte, string) {
		cfg := lockStepConfig("async", 3)
		cfg.eventsFile = filepath.Join(t.TempDir(), "events.jsonl")
		cfg.metrics = true
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		data, err := os.ReadFile(cfg.eventsFile)
		if err != nil {
			t.Fatal(err)
		}
		return data, out.String()
	}
	data, report := once()
	if got, want := bytes.Count(data, []byte(`"ev":"round_start"`)), 3*3; got != want {
		t.Fatalf("%d round_start events over 3 runs of 3 rounds, want %d:\n%s", got, want, data)
	}
	if got := bytes.Count(data, []byte(`"ev":"run_start"`)); got != 3 {
		t.Fatalf("%d run_start events, want 3", got)
	}
	if !bytes.Contains(data, []byte(`"ev":"suspect"`)) || bytes.Contains(data, []byte("msgnet.")) {
		t.Fatalf("events are not the engine's:\n%s", data)
	}
	if !strings.Contains(report, `"runs": 3`) || !strings.Contains(report, `"rounds": 9`) {
		t.Fatalf("metrics do not count 3 engine runs of 3 rounds:\n%s", report)
	}
	if again, _ := once(); !bytes.Equal(data, again) {
		t.Fatalf("two invocations wrote different events:\n%s\nvs\n%s", data, again)
	}
}
