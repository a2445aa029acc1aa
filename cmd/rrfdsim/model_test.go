package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/hoalg"
)

func modelConfig(model string) config {
	return config{model: model, alg: "none", n: 3, f: 1, k: 2, rounds: 3, seed: 3}
}

// TestRunModelPlainAllCatalog drives every catalog model through a plain
// run: the compiled oracle must produce a trace the compiled checker
// accepts, and the report must name the model. n=3 keeps the kset-bearing
// models inside the enumeration support so the same size works everywhere.
func TestRunModelPlainAllCatalog(t *testing.T) {
	names := hoalg.Names()
	if len(names) < 8 {
		t.Fatalf("catalog lists %d models, want >= 8", len(names))
	}
	for _, name := range names {
		var buf bytes.Buffer
		if err := run(modelConfig(name), &buf); err != nil {
			t.Fatalf("run(-model %s): %v\n%s", name, err, buf.String())
		}
		out := buf.String()
		if !strings.Contains(out, fmt.Sprintf("model %q", name)) {
			t.Fatalf("-model %s report does not name the model:\n%s", name, out)
		}
		if !strings.Contains(out, "satisfied") {
			t.Fatalf("-model %s trace escaped its own checker:\n%s", name, out)
		}
	}
}

// TestRunModelExpressionPlain: a raw expression (not a catalog name) works
// the same way and is echoed canonically.
func TestRunModelExpressionPlain(t *testing.T) {
	var buf bytes.Buffer
	if err := run(modelConfig("selftrust & atmost(1)"), &buf); err != nil {
		t.Fatalf("run raw expression: %v\n%s", err, buf.String())
	}
	if out := buf.String(); !strings.Contains(out, "satisfied") {
		t.Fatalf("raw expression run not satisfied:\n%s", out)
	}
}

// TestRunModelUnknownFailsLoudly: junk is neither a catalog name nor an
// expression; the error must list the known models.
func TestRunModelUnknownFailsLoudly(t *testing.T) {
	var buf bytes.Buffer
	err := run(modelConfig("definitely-not-a-model"), &buf)
	if err == nil || !strings.Contains(err.Error(), "known models") {
		t.Fatalf("want a known-models error, got %v", err)
	}
}

// TestValidateModelFlagCombos: -model drives a plain run, chaos and mc
// only; the other modes do not define it.
func TestValidateModelFlagCombos(t *testing.T) {
	for _, mode := range []string{"chaos-recover", "chaos-serve", "tcp"} {
		if _, err := parse(argv(mode, "-model", "async"), io.Discard); err == nil {
			t.Errorf("%s accepted -model", mode)
		}
	}
	for _, mode := range []string{"", "chaos", "mc"} {
		cfg, err := parse(argv(mode, "-model", "async"), io.Discard)
		if err == nil {
			err = validate(cfg)
		}
		if err != nil {
			t.Errorf("mode %q -model async: %v", mode, err)
		}
	}
}

// TestRunMCModelBranches: a disjunctive model explores each branch as its
// own enumeration and reports the per-branch schedule counts.
func TestRunMCModelBranches(t *testing.T) {
	cfg := modelConfig("kset(2) | perround(1)")
	cfg.alg = "qkset"
	cfg.mode = "mc"
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("mc over a disjunction: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "branches=2") {
		t.Fatalf("mc header does not report 2 branches:\n%s", out)
	}
	if strings.Count(out, "branch \"") != 2 {
		t.Fatalf("want one result line per branch:\n%s", out)
	}
	if !strings.Contains(out, "exhausted") {
		t.Fatalf("honest disjunction should exhaust cleanly:\n%s", out)
	}
}

// TestRunMCModelReplayRejectedOverBranches: a choice string is relative to
// one enumeration, so replay under a multi-branch model must refuse.
func TestRunMCModelReplayRejectedOverBranches(t *testing.T) {
	cfg := modelConfig("kset(2) | perround(1)")
	cfg.alg = "qkset"
	cfg.mode = "mc"
	cfg.mcReplay = "c1:0"
	var buf bytes.Buffer
	err := run(cfg, &buf)
	if err == nil || !strings.Contains(err.Error(), "branches") {
		t.Fatalf("want a branch-ambiguity error, got %v", err)
	}
}

// TestRunChaosModelHonestClean: a chaos campaign pinned to a model's
// honest compiled plan satisfies the model's own compiled checker.
func TestRunChaosModelHonestClean(t *testing.T) {
	cfg := modelConfig("async")
	cfg.n, cfg.f, cfg.k = 5, 1, 2
	cfg.mode = "chaos"
	cfg.runs = 5
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("chaos under an honest model plan: %v\n%s", err, buf.String())
	}
	if out := buf.String(); !strings.Contains(out, " 0 violations") {
		t.Fatalf("honest model campaign reported violations:\n%s", out)
	}
}
