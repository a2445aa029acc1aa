package main

import (
	"bytes"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/core
cpu: some CPU
BenchmarkSetOps/n=16-8         	 8000000	       150 ns/op	      32 B/op	       1 allocs/op
BenchmarkEngineRounds/n=16-8   	    5647	    110880 ns/op	        10.00 rounds/run
BenchmarkEngineRounds/n=16-8   	    5700	    109500 ns/op	        10.00 rounds/run
BenchmarkEngineRounds/n=16-8   	    5500	    112200 ns/op	        10.00 rounds/run
PASS
ok  	repro/internal/core	4.2s
`

func TestParseAggregates(t *testing.T) {
	var echo bytes.Buffer
	results, err := parse(strings.NewReader(sampleOutput), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != sampleOutput {
		t.Fatal("parse must echo its input verbatim")
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(results), results)
	}

	// Sorted by name: EngineRounds before SetOps.
	er := results[0]
	if er.Name != "EngineRounds/n=16" {
		t.Fatalf("name = %q", er.Name)
	}
	if er.Runs != 3 {
		t.Fatalf("runs = %d, want 3", er.Runs)
	}
	if er.Iterations != 5500 {
		t.Fatalf("iterations = %d, want last run's 5500", er.Iterations)
	}
	if got := round2(er.NsPerOpMean); got != round2((110880+109500+112200)/3.0) {
		t.Fatalf("mean = %v", er.NsPerOpMean)
	}
	if er.NsPerOpMin != 109500 {
		t.Fatalf("min = %v", er.NsPerOpMin)
	}
	if er.Metrics["rounds/run"] != 10 {
		t.Fatalf("custom metric missing: %v", er.Metrics)
	}

	so := results[1]
	if so.Name != "SetOps/n=16" {
		t.Fatalf("name = %q", so.Name)
	}
	if so.BytesPerOp == nil || *so.BytesPerOp != 32 {
		t.Fatalf("B/op = %v", so.BytesPerOp)
	}
	if so.AllocsPerOp == nil || *so.AllocsPerOp != 1 {
		t.Fatalf("allocs/op = %v", so.AllocsPerOp)
	}
}

func TestParseNoBenchLines(t *testing.T) {
	results, err := parse(strings.NewReader("PASS\nok x 0.1s\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("got %d results from non-benchmark input", len(results))
	}
}

func intPtr(n int64) *int64 { return &n }

func TestCompareDetectsRegressions(t *testing.T) {
	baseline := File{Results: []Result{
		{Name: "A", NsPerOpMin: 1000, AllocsPerOp: intPtr(100)},
		{Name: "B", NsPerOpMin: 1000, AllocsPerOp: intPtr(100)},
		{Name: "C", NsPerOpMin: 1000},
		{Name: "Gone", NsPerOpMin: 500},
	}}
	fresh := []Result{
		{Name: "A", NsPerOpMin: 1100, AllocsPerOp: intPtr(110)}, // within +20%
		{Name: "B", NsPerOpMin: 1500, AllocsPerOp: intPtr(100)}, // ns/op regressed
		{Name: "C", NsPerOpMin: 900, AllocsPerOp: intPtr(5)},    // improved; no baseline allocs
		{Name: "New", NsPerOpMin: 42},
	}
	var buf bytes.Buffer
	got := compare(fresh, baseline, 0.20, 0.20, &buf)
	if got != 1 {
		t.Fatalf("regressions = %d, want 1 (B ns/op):\n%s", got, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"REGRESSED B", "new       New", "vanished  Gone"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
}

func TestCompareAllocRegression(t *testing.T) {
	baseline := File{Results: []Result{
		{Name: "A", NsPerOpMin: 1000, AllocsPerOp: intPtr(10)},
	}}
	fresh := []Result{
		{Name: "A", NsPerOpMin: 1000, AllocsPerOp: intPtr(13)}, // +30% allocs
	}
	var buf bytes.Buffer
	if got := compare(fresh, baseline, 0.20, 0.20, &buf); got != 1 {
		t.Fatalf("regressions = %d, want 1 (allocs):\n%s", got, buf.String())
	}
	// Raising the alloc threshold clears it.
	buf.Reset()
	if got := compare(fresh, baseline, 0.20, 0.50, &buf); got != 0 {
		t.Fatalf("regressions = %d, want 0 at +50%%:\n%s", got, buf.String())
	}
}

func TestCompareCleanRun(t *testing.T) {
	baseline := File{Results: []Result{
		{Name: "A", NsPerOpMin: 1000, AllocsPerOp: intPtr(10)},
	}}
	fresh := []Result{
		{Name: "A", NsPerOpMin: 800, AllocsPerOp: intPtr(8)},
	}
	var buf bytes.Buffer
	if got := compare(fresh, baseline, 0.20, 0.20, &buf); got != 0 {
		t.Fatalf("regressions = %d, want 0:\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "ok") {
		t.Fatalf("clean run not reported ok:\n%s", buf.String())
	}
}

func TestParseStripsGomaxprocsSuffixOnly(t *testing.T) {
	// A name ending in a dash-number that is part of a sub-benchmark label
	// (before the whitespace) must keep everything except the final
	// -GOMAXPROCS suffix, which becomes the row's procs. go test prints no
	// suffix at GOMAXPROCS 1, and -cpu 1,4 makes two rows, not one.
	in := "BenchmarkX/f=3-16 \t 100 \t 2500 ns/op\n" +
		"BenchmarkY-4 \t 100 \t 900 ns/op\n" +
		"BenchmarkY \t 100 \t 1000 ns/op\n"
	results, err := parse(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name  string
		procs int
		ns    float64
	}{{"X/f=3", 16, 2500}, {"Y", 1, 1000}, {"Y", 4, 900}}
	if len(results) != len(want) {
		t.Fatalf("results = %+v", results)
	}
	for i, w := range want {
		if r := results[i]; r.Name != w.name || r.Procs != w.procs || r.NsPerOpMin != w.ns || r.Runs != 1 {
			t.Fatalf("row %d = %+v, want %s at procs %d", i, r, w.name, w.procs)
		}
	}
}

// TestCompareGradesOnlyLikeProcs: a row is graded against the baseline row
// at its own GOMAXPROCS — a baseline row without procs counts as 1 — and a
// benchmark the baseline has only at other GOMAXPROCS is reported as a
// mismatch, not graded.
func TestCompareGradesOnlyLikeProcs(t *testing.T) {
	baseline := File{Results: []Result{
		{Name: "A", NsPerOpMin: 1000},           // written before rows carried procs
		{Name: "B", Procs: 1, NsPerOpMin: 1000}, // only at GOMAXPROCS 1
		{Name: "C", Procs: 4, NsPerOpMin: 1000},
	}}
	fresh := []Result{
		{Name: "A", Procs: 1, NsPerOpMin: 1500}, // graded: regressed
		{Name: "B", Procs: 4, NsPerOpMin: 9000}, // other procs: not graded
		{Name: "C", Procs: 4, NsPerOpMin: 1100}, // graded: ok
	}
	var buf bytes.Buffer
	if got := compare(fresh, baseline, 0.20, 0.20, &buf); got != 1 {
		t.Fatalf("regressions = %d, want 1 (A):\n%s", got, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"REGRESSED A:", "mismatch  B: ran at GOMAXPROCS 4, baseline at [1]", "ok        C-4:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "vanished") {
		t.Fatalf("a mismatched benchmark reported as vanished:\n%s", out)
	}
}
