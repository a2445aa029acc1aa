package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hoalg"
)

func baseConfig() config {
	return config{system: "kset", alg: "kset", n: 8, f: 2, k: 2, seed: 1}
}

func TestValidateRejectsOutFileWithoutTrace(t *testing.T) {
	cfg := baseConfig()
	cfg.noTrace = true
	cfg.outFile = "trace.json"
	err := validate(cfg)
	if err == nil {
		t.Fatal("validate accepted -o with -notrace")
	}
	if !strings.Contains(err.Error(), "-notrace") {
		t.Fatalf("error should point at -notrace: %v", err)
	}
}

func TestValidateRejectsDumpTraceWithoutTrace(t *testing.T) {
	cfg := baseConfig()
	cfg.noTrace = true
	cfg.dumpTrace = true
	if err := validate(cfg); err == nil {
		t.Fatal("validate accepted -trace with -notrace")
	}
}

func TestValidateRejectsBadN(t *testing.T) {
	for _, c := range []struct {
		what string
		set  func(*config)
	}{
		{"n=0", func(c *config) { c.n = 0 }},
		{"f=-1", func(c *config) { c.f = -1 }},
		{"k=0", func(c *config) { c.k = 0 }},
		{"chaos f=0", func(c *config) { c.mode, c.f = "chaos", 0 }},
		{"chaos-recover f=0", func(c *config) { c.mode, c.f = "chaos-recover", 0 }},
		{"chaos-serve f=0", func(c *config) { c.mode, c.f = "chaos-serve", 0 }},
		{"chaos-recover n=1 f=1", func(c *config) { c.mode, c.n, c.f = "chaos-recover", 1, 1 }},
		{"chaos n=2 f=2", func(c *config) { c.mode, c.n, c.f = "chaos", 2, 2 }},
	} {
		cfg := baseConfig()
		c.set(&cfg)
		if err := validate(cfg); err == nil {
			t.Fatalf("validate accepted %s", c.what)
		}
	}
	// A plain run and mc may run fault-free.
	for _, mode := range []string{"", "mc"} {
		cfg := baseConfig()
		cfg.mode, cfg.f = mode, 0
		if err := validate(cfg); err != nil {
			t.Fatalf("validate rejected f=0 in mode %q: %v", mode, err)
		}
	}
}

// TestRunMCRejectsUnsatisfiableModel: a model expression that admits no plan
// is an input error like a bad -n — one line naming the model (under mc
// the branch), the round and the state, in a plain run as under mc at every
// -workers count and on replay — where mc used to panic out of the
// adversary and a plain run used to blame the model's own oracle for
// violating the model.
func TestRunMCRejectsUnsatisfiableModel(t *testing.T) {
	for _, c := range []struct {
		model  string
		round  int
		replay string
		plain  bool
	}{
		{model: "perround(0) & !perround(0)", round: 1},
		{model: "perround(0) & !perround(0)", round: 1, plain: true},
		{model: "identical & !identical", round: 1},
		{model: "identical & !identical", round: 1, replay: "c1:0"},
		{model: "eventually(1, perround(0) & !perround(0))", round: 2},
		{model: "eventually(1, perround(0) & !perround(0))", round: 2, plain: true},
	} {
		for _, workers := range []int{1, 4, 8} {
			cfg := modelConfig(c.model)
			cfg.mode, cfg.alg, cfg.rounds = "mc", "floodmin", 2
			cfg.workers, cfg.mcReplay = workers, c.replay
			if c.plain {
				if workers > 1 {
					continue // -workers parallelizes campaigns only
				}
				cfg.mode, cfg.alg = "", "none"
			}
			var buf bytes.Buffer
			err := run(cfg, &buf)
			var empty *hoalg.EmptyFamilyError
			if !errors.As(err, &empty) || empty.Round != c.round {
				t.Fatalf("mode %q -model %q -workers %d -replay %q: err = %v, want an empty plan family in round %d\n%s",
					cfg.mode, c.model, workers, c.replay, err, c.round, buf.String())
			}
			text := err.Error()
			if strings.Contains(text, "\n") || !strings.Contains(text, c.model) ||
				!strings.Contains(text, fmt.Sprintf("no plan in round %d (active={0,1,2}", c.round)) {
				t.Fatalf("-model %q: error should be one line naming the model, the round and the state: %q", c.model, text)
			}
			if strings.Contains(buf.String(), "violation") || strings.Contains(buf.String(), "collected") {
				t.Fatalf("-model %q: an unsatisfiable model reported as a run:\n%s", c.model, buf.String())
			}
		}
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := baseConfig()
	cfg.noTrace = true
	cfg.outFile = filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run(cfg, &buf); err == nil {
		t.Fatal("run accepted -o with -notrace")
	}
	if _, err := os.Stat(cfg.outFile); !os.IsNotExist(err) {
		t.Fatal("trace file should not have been created")
	}
}

func TestRunUnknownSystemAndAlg(t *testing.T) {
	var buf bytes.Buffer
	cfg := baseConfig()
	cfg.system = "nope"
	if err := run(cfg, &buf); err == nil || !strings.Contains(err.Error(), "unknown system") {
		t.Fatalf("want unknown system error, got %v", err)
	}
	cfg = baseConfig()
	cfg.alg = "nope"
	if err := run(cfg, &buf); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("want unknown algorithm error, got %v", err)
	}
}

// TestRunMetricsAndEvents drives the acceptance scenario end to end:
// kset system + kset algorithm with -metrics and -events, then checks
// that the JSONL event stream is consistent with the printed metrics.
func TestRunMetricsAndEvents(t *testing.T) {
	cfg := baseConfig()
	cfg.metrics = true
	cfg.eventsFile = filepath.Join(t.TempDir(), "events.jsonl")
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"rounds_to_decision", "suspicions_total", "dset_size_hist", "events written to"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	// Pull the rounds count out of the metrics snapshot.
	idx := strings.Index(out, "metrics:\n")
	if idx < 0 {
		t.Fatalf("no metrics block:\n%s", out)
	}
	var snap struct {
		Rounds int64 `json:"rounds"`
		Runs   int64 `json:"runs"`
	}
	dec := json.NewDecoder(strings.NewReader(out[idx+len("metrics:\n"):]))
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("decode metrics snapshot: %v", err)
	}
	if snap.Runs != 1 {
		t.Fatalf("runs = %d, want 1", snap.Runs)
	}

	// Count round_start events in the JSONL file; it must match the
	// metrics round counter (and, transitively, the trace length).
	f, err := os.Open(cfg.eventsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var roundStarts, runEnds int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch ev.Ev {
		case "round_start":
			roundStarts++
		case "run_end":
			runEnds++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if roundStarts != snap.Rounds {
		t.Fatalf("round_start events = %d, metrics rounds = %d", roundStarts, snap.Rounds)
	}
	if runEnds != 1 {
		t.Fatalf("run_end events = %d, want 1", runEnds)
	}
}

func TestRunWritesTraceFile(t *testing.T) {
	cfg := baseConfig()
	cfg.outFile = filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(cfg.outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Fatal("trace file is not valid JSON")
	}
}

func TestRunCollectOnly(t *testing.T) {
	cfg := baseConfig()
	cfg.alg = "none"
	cfg.rounds = 4
	cfg.metrics = true
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "collected 4 rounds") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunChaosClean(t *testing.T) {
	for _, cfg := range []config{
		{n: 6, f: 2, k: 3, seed: 7, mode: "chaos", runs: 25, drop: 0.3},
		// Every fault class at once, plus a crash.
		{n: 5, f: 1, k: 2, seed: 21, mode: "chaos", runs: 15, drop: 0.3, dup: 0.3,
			delay: 0.4, omit: 0.4, partition: 0.5, crashes: 1},
	} {
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			t.Fatalf("clean campaign errored: %v\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), " 0 violations") {
			t.Fatalf("summary missing:\n%s", out.String())
		}
	}
}

func TestRunChaosBugFailsLoudly(t *testing.T) {
	cfg := config{n: 6, f: 2, k: 3, seed: 13, mode: "chaos", runs: 40,
		drop: 1.0, omit: 0.8, partition: 0.6, watchdog: 300, bug: true}
	var out bytes.Buffer
	err := run(cfg, &out)
	if err == nil {
		t.Fatalf("planted bug went undetected:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "safety violation") {
		t.Fatalf("err = %v, want a safety-violation error", err)
	}
	for _, want := range []string{"replay: sched-seed=", "minimized:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunChaosMetricsAndEvents(t *testing.T) {
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "chaos.jsonl")
	cfg := config{n: 6, f: 2, k: 3, seed: 7, mode: "chaos", runs: 5, drop: 0.3,
		metrics: true, eventsFile: eventsPath}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if events := metricsEvents(t, out.String()); events["rlink.retransmit"] == 0 {
		t.Fatalf("metrics count no rlink.retransmit events:\n%s", out.String())
	}
	data, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("faultnet.drop")) || !bytes.Contains(data, []byte("rlink.retransmit")) {
		t.Fatal("events file lacks fault/link events")
	}
	// JSONL: every line decodes.
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
	}
}

// TestRunChaosWorkersByteIdentical drives the -workers flag end to end:
// the same campaign at workers=1 and workers=8 must print the same bytes.
func TestRunChaosWorkersByteIdentical(t *testing.T) {
	campaign := func(workers int) string {
		cfg := config{n: 6, f: 2, k: 3, seed: 7, mode: "chaos", runs: 10,
			drop: 0.3, workers: workers}
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			t.Fatalf("workers=%d campaign errored: %v\n%s", workers, err, out.String())
		}
		return out.String()
	}
	want := campaign(1)
	if got := campaign(8); got != want {
		t.Fatalf("workers=8 output differs:\n%s\nvs workers=1:\n%s", got, want)
	}
}

func TestValidateRejectsBadWorkers(t *testing.T) {
	cfg := config{n: 6, mode: "chaos", workers: -1}
	if err := validate(cfg); err == nil {
		t.Fatal("validate accepted -workers -1")
	}
	if _, err := parse([]string{"-workers", "8"}, io.Discard); err == nil {
		t.Fatal("a plain run accepted -workers, which parallelizes campaigns only")
	}
}

// TestRunKillResumeIdenticalTrace is the acceptance round trip: a run
// journaled with -checkpoint and killed mid-way by -kill-after, then
// continued with -resume, must produce byte-for-byte the trace of an
// uninterrupted run with the same flags.
func TestRunKillResumeIdenticalTrace(t *testing.T) {
	dir := t.TempDir()
	base := config{system: "crash", alg: "floodmin", n: 8, f: 3, k: 2, seed: 5}

	full := base
	full.outFile = filepath.Join(dir, "full.json")
	var out bytes.Buffer
	if err := run(full, &out); err != nil {
		t.Fatal(err)
	}

	killed := base
	killed.ckptDir = filepath.Join(dir, "ck")
	killed.killAfter = 1
	out.Reset()
	if err := run(killed, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "halted after round 1") {
		t.Fatalf("kill run output:\n%s", out.String())
	}

	resumed := base
	resumed.resumeDir = killed.ckptDir
	resumed.outFile = filepath.Join(dir, "resumed.json")
	out.Reset()
	if err := run(resumed, &out); err != nil {
		t.Fatalf("resume: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "resumed from") {
		t.Fatalf("resume output:\n%s", out.String())
	}

	a, err := os.ReadFile(full.outFile)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed.outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("resumed trace differs from uninterrupted trace:\n%s\nvs\n%s", a, b)
	}
}

// TestRunResumePastKillPoint: -resume with a -kill-after at or below the
// journaled rounds halts at the end of the replay — no new round, the log
// byte-identical — instead of running and journaling one more round.
func TestRunResumePastKillPoint(t *testing.T) {
	base := config{system: "crash", alg: "floodmin", n: 8, f: 3, k: 1, seed: 5} // decides in round 4
	killed := base
	killed.ckptDir = filepath.Join(t.TempDir(), "ck")
	killed.killAfter = 2
	var out bytes.Buffer
	if err := run(killed, &out); err != nil {
		t.Fatal(err)
	}
	before := dirBytes(t, killed.ckptDir)

	resumed := base
	resumed.resumeDir = killed.ckptDir
	resumed.killAfter = 1
	out.Reset()
	if err := run(resumed, &out); err != nil {
		t.Fatalf("resume: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "halted after round 2") {
		t.Fatalf("resume past the kill point:\n%s", out.String())
	}
	if !bytes.Equal(dirBytes(t, killed.ckptDir), before) {
		t.Fatal("a resume halted inside its replay changed the log")
	}
}

// dirBytes concatenates the files of a directory in name order.
func dirBytes(t *testing.T, dir string) []byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no files in %s: %v", dir, err)
	}
	var all []byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

func TestValidateRecoveryFlagCombos(t *testing.T) {
	cfg := baseConfig()
	cfg.killAfter = 2
	if err := validate(cfg); err == nil {
		t.Fatal("validate accepted -kill-after without -checkpoint")
	}
	cfg = baseConfig()
	cfg.ckptDir = "a"
	cfg.resumeDir = "b"
	if err := validate(cfg); err == nil {
		t.Fatal("validate accepted -resume with -checkpoint")
	}
	cfg = baseConfig()
	cfg.alg = "none"
	cfg.ckptDir = "a"
	if err := validate(cfg); err == nil {
		t.Fatal("validate accepted -checkpoint with -alg none")
	}
}

func TestRunChaosRecoverClean(t *testing.T) {
	for _, cfg := range []config{
		{n: 5, f: 1, k: 2, mode: "chaos-recover", runs: 25, seed: 42},
		// Crashes and restarts over lossy, slow links.
		{n: 5, f: 1, k: 2, mode: "chaos-recover", runs: 15, seed: 7, drop: 0.15, delay: 0.2},
	} {
		var out bytes.Buffer
		if err := run(cfg, &out); err != nil {
			t.Fatalf("clean campaign errored: %v\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), " 0 violations") {
			t.Fatalf("summary missing:\n%s", out.String())
		}
	}
}

func TestRunChaosRecoverAmnesiaBugFailsLoudly(t *testing.T) {
	cfg := config{n: 5, f: 1, k: 2, mode: "chaos-recover", runs: 40, seed: 42, bug: true}
	var out bytes.Buffer
	err := run(cfg, &out)
	if err == nil {
		t.Fatalf("planted amnesia bug went undetected:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "safety violation") {
		t.Fatalf("err = %v, want a safety-violation error", err)
	}
	if !strings.Contains(out.String(), "replay: sched-seed=") {
		t.Fatalf("violation lacks a replay recipe:\n%s", out.String())
	}
}

func TestRunChaosRecoverMetrics(t *testing.T) {
	cfg := config{n: 5, f: 1, k: 2, mode: "chaos-recover", runs: 10, seed: 7, metrics: true}
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if events := metricsEvents(t, out.String()); events["recovery.rejoin"] == 0 {
		t.Fatalf("metrics count no recovery.rejoin events:\n%s", out.String())
	}
}

func mcConfig() config {
	return config{system: "async", alg: "qkset", n: 3, f: 1, k: 2, seed: 1, mode: "mc"}
}

// TestRunMCExhaustsHonest explores one honest rule per model family to the
// end, and a depth-bounded one that samples past its frontier.
func TestRunMCExhaustsHonest(t *testing.T) {
	for _, tc := range []struct {
		cfg                config
		schedules, verdict string
	}{
		{mcConfig(), "schedules=27 ", "exhausted: every schedule satisfies the properties"},
		{config{system: "omission", alg: "floodmin", n: 3, f: 1, k: 2, rounds: 3, seed: 1, mode: "mc"},
			"schedules=124 pruned=22 ", "exhausted: every schedule satisfies the properties"},
		{config{system: "crash", alg: "floodmin", n: 3, f: 1, k: 2, rounds: 2, seed: 1, mode: "mc", mcDepth: 1},
			"schedules=80 pruned=0 sampled=80 ", "bounded: sampled beyond depth 1, no violation found"},
	} {
		var buf bytes.Buffer
		if err := run(tc.cfg, &buf); err != nil {
			t.Fatalf("run: %v\n%s", err, buf.String())
		}
		out := buf.String()
		if !strings.Contains(out, tc.schedules) || !strings.Contains(out, tc.verdict) {
			t.Fatalf("output lacks %q and %q:\n%s", tc.schedules, tc.verdict, out)
		}
	}
}

func TestRunMCFindsPlantedBug(t *testing.T) {
	cfg := mcConfig()
	cfg.bug = true
	var buf bytes.Buffer
	err := run(cfg, &buf)
	if err == nil {
		t.Fatalf("planted bug not reported as error:\n%s", buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "violation:") || !strings.Contains(out, "counterexample (1 choices") {
		t.Fatalf("output lacks the shrunk counterexample:\n%s", out)
	}
	if !strings.Contains(out, "c1:4") {
		t.Fatalf("output lacks the replay string:\n%s", out)
	}
	// mc.KAgreement's error is the task verdict's own sentence.
	if want := "violation: property 2-agreement violated: 3 distinct decisions [0 1 2] exceed k=2\n"; !strings.Contains(out, want) {
		t.Fatalf("counterexample line changed, want %q in:\n%s", want, out)
	}
}

func TestRunMCWorkersByteIdentical(t *testing.T) {
	outputs := make([]string, 0, 3)
	for _, w := range []int{1, 4, 8} {
		cfg := mcConfig()
		cfg.bug = true
		cfg.workers = w
		var buf bytes.Buffer
		if err := run(cfg, &buf); err == nil {
			t.Fatal("planted bug not found")
		}
		outputs = append(outputs, buf.String())
	}
	if outputs[0] != outputs[1] || outputs[0] != outputs[2] {
		t.Fatalf("worker counts change the output:\n%s\nvs\n%s\nvs\n%s",
			outputs[0], outputs[1], outputs[2])
	}
}

func TestRunMCReplay(t *testing.T) {
	cfg := mcConfig()
	cfg.bug = true
	cfg.mcReplay = "c1:4"
	var buf bytes.Buffer
	if err := run(cfg, &buf); err == nil {
		t.Fatalf("replayed counterexample did not violate:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "violation reproduced") {
		t.Fatalf("replay output:\n%s", buf.String())
	}

	// The same schedule is harmless for the honest rule.
	cfg.bug = false
	buf.Reset()
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("honest replay failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no violation") {
		t.Fatalf("replay output:\n%s", buf.String())
	}
}

func TestRunMCReplayRejectsTornString(t *testing.T) {
	cfg := mcConfig()
	cfg.mcReplay = "c1:4."
	var buf bytes.Buffer
	err := run(cfg, &buf)
	if err == nil || !strings.Contains(err.Error(), "bad choice string") {
		t.Fatalf("torn replay string accepted: %v", err)
	}
}

func TestRunMCMetrics(t *testing.T) {
	cfg := mcConfig()
	cfg.metrics = true
	var buf bytes.Buffer
	if err := run(cfg, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if events := metricsEvents(t, buf.String()); events["mc.schedule"] != 27 {
		t.Fatalf("%d mc.schedule events, want 27:\n%s", events["mc.schedule"], buf.String())
	}
}

// metricsEvents decodes the -metrics snapshot that ends out and returns its
// per-kind event counts.
func metricsEvents(t *testing.T, out string) map[string]int64 {
	t.Helper()
	idx := strings.Index(out, "metrics:\n")
	if idx < 0 {
		t.Fatalf("no metrics snapshot:\n%s", out)
	}
	var snap struct {
		Events map[string]int64 `json:"events"`
	}
	if err := json.Unmarshal([]byte(out[idx+len("metrics:\n"):strings.LastIndex(out, "}")+1]), &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	return snap.Events
}

// TestValidateMCFlagCombos: mc parallelizes its exploration, and its
// -replay exists in no other mode.
func TestValidateMCFlagCombos(t *testing.T) {
	cfg, err := parse([]string{"mc", "-system", "async", "-alg", "qkset", "-n", "3", "-f", "1", "-workers", "4"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate(cfg); err != nil {
		t.Fatalf("mc -workers 4 rejected: %v", err)
	}
	if _, err := parse([]string{"-replay", "c1:1"}, io.Discard); err == nil {
		t.Fatal("-replay outside mc accepted")
	}
}

func TestRunMCRejectsLargeN(t *testing.T) {
	cfg := mcConfig()
	cfg.n = 6
	var buf bytes.Buffer
	err := run(cfg, &buf)
	if err == nil || !strings.Contains(err.Error(), "n") {
		t.Fatalf("n=6 enumeration accepted: %v", err)
	}
}

// TestRunNetParentRejectsBadShape pins the tcp mode's shape errors without
// spawning anything.
func TestRunNetParentRejectsBadShape(t *testing.T) {
	var buf bytes.Buffer
	cfg := baseConfig()
	cfg.mode = "tcp"
	cfg.f = 0
	if err := run(cfg, &buf); err == nil || !strings.Contains(err.Error(), "f <") {
		t.Fatalf("accepted f=0: %v", err)
	}
	cfg = baseConfig()
	cfg.mode = "tcp"
	cfg.k = 1
	if err := run(cfg, &buf); err == nil || !strings.Contains(err.Error(), "k >= 2") {
		t.Fatalf("accepted k=1: %v", err)
	}
}

// TestNetChildRejectsBadAddrs pins the child-side flag validation.
func TestNetChildRejectsBadAddrs(t *testing.T) {
	var buf bytes.Buffer
	cfg := baseConfig()
	cfg.mode = "tcp-child"
	cfg.netAddrs = "127.0.0.1:1,127.0.0.1:2"
	if err := run(cfg, &buf); err == nil || !strings.Contains(err.Error(), "addrs") {
		t.Fatalf("accepted an addrs/n mismatch: %v", err)
	}
}
