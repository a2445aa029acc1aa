package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestQuantileAgainstSortedReference checks summarize's median and p99
// by the defining property of a nearest-rank quantile — at least q·n
// samples at or below it, fewer than q·n strictly below — counted over
// an independently sorted copy.
func TestQuantileAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 99, 100, 101, 1000, 12345} {
		ns := make([]int64, n)
		for i := range ns {
			ns[i] = int64(rng.ExpFloat64() * 150e3) // a long-tailed latency
		}
		ref := append([]int64(nil), ns...)
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		lat := summarize(ns)
		if lat.N != n {
			t.Fatalf("n=%d: sample count %d", n, lat.N)
		}
		for _, c := range []struct {
			q   float64
			got float64
		}{{0.50, lat.P50}, {0.99, lat.P99}} {
			need := int(math.Ceil(c.q * float64(n)))
			v := int64(math.Round(c.got * 1e3))
			atOrBelow := sort.Search(n, func(i int) bool { return ref[i] > v })
			below := sort.Search(n, func(i int) bool { return ref[i] >= v })
			if atOrBelow < need || below >= need {
				t.Errorf("n=%d q=%.2f: %d ns has %d at or below and %d below, rank needed %d", n, c.q, v, atOrBelow, below, need)
			}
		}
	}
}

// TestQuartileSpreadMatchesPython pins quartileSpread to values computed
// with Python's statistics.quantiles(xs, n=4), the driver's rule.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 13, 50}, (31.5 - 10.5) / 12},
		{[]float64{3, 1}, (3.5 - 0.5) / 2}, // two points extrapolate, as Python does
		{[]float64{4}, 0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 100},
		// Two clients' requests overlap each other under one phase.
		{ID: 2, Parent: 1, Name: "request", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "request", Start: 30, End: 70},
		// A child that sticks out of its parent is clipped to it.
		{ID: 4, Parent: 1, Name: "request", Start: 90, End: 120},
		// Nested: the attempt covers part of its request only.
		{ID: 5, Parent: 2, Name: "attempt", Start: 15, End: 45},
		{ID: 6, Parent: 5, Name: "syscall", Start: 20, End: 25},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"phase":   100 - (60 + 10),             // [10,70] ∪ [90,100]
		"request": (40 - 30) + 40 + (120 - 90), // only span 2 has a child
		"attempt": 30 - 5,
		"syscall": 5,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	var nilTracer *tracer
	l := nilTracer.lane()
	l.end(l.begin(0, "nothing")) // the untraced path must be a no-op
	if nilTracer.spans() != nil {
		t.Error("nil tracer recorded spans")
	}
}

func TestChromeTraceIsJSON(t *testing.T) {
	tr := newTracer()
	l := tr.lane()
	root := l.begin(0, `work"load`)
	l.end(l.begin(root.id, "phase"))
	l.end(root)
	path := filepath.Join(t.TempDir(), "t.json")
	if err := writeChromeTrace(path, tr.spans()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args struct{ ID, Parent int32 }
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Name != "phase" || doc.TraceEvents[0].Args.Parent != root.id {
		t.Errorf("unexpected events %+v", doc.TraceEvents)
	}
}

// TestPickerIsPureAndSkewed: the instance picker is a function of the
// seed alone, and hot instances repeat.
func TestPickerIsPureAndSkewed(t *testing.T) {
	draw := func(seed int64) []uint64 {
		p := newPicker(seed, 20000)
		xs := make([]uint64, 5000)
		for i := range xs {
			xs[i] = p.Uint64()
		}
		return xs
	}
	a, b, c := draw(3), draw(3), draw(4)
	same := func(x, y []uint64) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("same seed drew different instances")
	}
	if same(a, c) {
		t.Error("different seeds drew the same instances")
	}
	hot := 0
	for _, x := range a {
		if x >= 20000 {
			t.Fatalf("drew %d outside the preload", x)
		}
		if x < 20 {
			hot++
		}
	}
	if hot < len(a)/4 {
		t.Errorf("only %d of %d draws hit the 20 hottest of 20000 instances", hot, len(a))
	}
}

// TestYardstick: a sample's factor is the mean of the two samples that
// bracket the slice, relative to yardRef; a slice's latencies are divided
// by its factor and its rate multiplied by it, with the raw readings
// kept; and a nil yardstick corrects nothing.
func TestYardstick(t *testing.T) {
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	before := y.last
	f := y.sample()
	if want := (before + y.last) / 2 / float64(yardRef); f != want || !(f > 0) {
		t.Errorf("factor %v, want %v > 0", f, want)
	}
	if len(y.factors) != 1 || y.err != nil {
		t.Errorf("%d factors kept, error %v", len(y.factors), y.err)
	}
	if f := (*yardstick)(nil).sample(); f != 1 {
		t.Errorf("nil yardstick says %v", f)
	}

	var o outcome
	o.addSlice([]int64{300, 600}, 2, time.Second, 1.5)
	o.addSetup(3*time.Second, 1.5)
	if o.rawLat[1] != 600 || o.lat[1] != 400 || o.rawRates[0] != 2 || o.rates[0] != 3 || o.ops != 2 {
		t.Errorf("slice: raw %v %v corrected %v %v ops %d", o.rawLat, o.rawRates, o.lat, o.rates, o.ops)
	}
	if o.rawSetupS[0] != 3 || o.setupS[0] != 2 {
		t.Errorf("set-up: raw %v corrected %v", o.rawSetupS, o.setupS)
	}
}

// TestSmoke runs all five workloads untraced and one traced run (which
// runs all five again, shorter, plus the ladder) at a fiftieth of full
// scale. They run side by side: the timings mean nothing at this scale,
// the audits and the plumbing are what is tested.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := execute(w.Name, 1, 10, 0.02, false, out)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d: %s", rep.Correct, rep.Failed, rep.Attempted, rep.Offender)
			}
			for _, d := range endToEnd {
				if v := rep.EndToEnd[d.Name]; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.Name, v)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		rep, err := execute("svc-durable", 2, 10, 0.02, true, filepath.Join(out, "traced"))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct {
			t.Errorf("failed %d of %d: %s", rep.Failed, rep.Attempted, rep.Offender)
		}
		if len(rep.Layer) != len(perLayer) {
			t.Errorf("%d per-layer metrics, want %d", len(rep.Layer), len(perLayer))
		}
		if rep.Layer["mc.schedules"] != 1507 || rep.Layer["mc.pruned"] != 474 {
			t.Errorf("mc explored %v schedules and pruned %v, want 1507 and 474", rep.Layer["mc.schedules"], rep.Layer["mc.pruned"])
		}
		if _, err := os.Stat(filepath.Join(out, "traced", "svc-durable.trace.json")); err != nil {
			t.Error(err)
		}
	})
}

// TestBenchmarkJSON keeps ../BENCHMARK.json and the tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	strip := func(defs []metricDef) []metricDef {
		out := append([]metricDef(nil), defs...)
		for i := range out {
			out[i].Source = ""
		}
		return out
	}
	mustEqual := func(what string, got, want any) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s differ:\n BENCHMARK.json %s\n tables         %s", what, g, w)
		}
	}
	var gated []workloadDef
	for _, w := range workloads {
		if w.Name != ungated {
			gated = append(gated, w)
		}
	}
	mustEqual("workloads", doc.Workloads, gated)
	mustEqual("end_to_end", doc.EndToEnd, strip(endToEnd))
	mustEqual("per_layer", doc.PerLayer, strip(perLayer))
}

func TestCompare(t *testing.T) {
	mk := func(p50 []float64) *resultSet {
		set := &resultSet{Stamp: stamp{Commit: "a", Seed: 1, Runs: len(p50)}}
		for _, w := range workloads {
			for _, v := range p50 {
				set.Reports = append(set.Reports, &report{Workload: w.Name, Correct: true, EndToEnd: map[string]float64{
					"setup_s": 1, "op_p50_us": v, "ops_per_s": 1000, "alloc_kb_per_op": 50,
				}})
			}
		}
		return set
	}
	dir := t.TempDir()
	write := func(name string, set *resultSet) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk([]float64{100, 101, 102, 103, 104}))
	for _, c := range []struct {
		name, verdict string
		set           *resultSet
	}{
		{"same", "", mk([]float64{101, 102, 103, 104, 105})},
		{"slower", "REGRESSION", mk([]float64{130, 131, 132, 133, 134})},
		{"noisy", "unresolved", mk([]float64{60, 90, 120, 150, 180})},
	} {
		c.set.Stamp.Commit = "b" // a different commit is what a comparison is for
		var buf bytes.Buffer
		err := compareFiles(&buf, base, write(c.name+".json", c.set))
		if (err != nil) != (c.verdict != "") || !strings.Contains(buf.String(), c.verdict) {
			t.Errorf("%s: err %v, want verdict %q in\n%s", c.name, err, c.verdict, buf.String())
		}
		if n := strings.Count(buf.String(), "not gated"); n != len(endToEnd) {
			t.Errorf("%s: %d rows not gated, want %s's %d", c.name, n, ungated, len(endToEnd))
		}
	}
	other := mk([]float64{100, 101, 102, 103, 104})
	other.Stamp.Seed = 2
	if err := compareFiles(&bytes.Buffer{}, base, write("seed.json", other)); err == nil || !strings.Contains(err.Error(), "do not compare") {
		t.Errorf("differing stamps compared: %v", err)
	}
}
