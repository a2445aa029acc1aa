// Command bench is the repository's end-to-end benchmark: five workloads
// over the agreement service and the paper reproduction (four of them
// gated), four bounded end-to-end metrics, a per-layer ladder, and a
// traced run. README.md in
// this directory says what each number means and how to run, compare and
// read a trace.
//
//	sh bench/run.sh --workload svc-decide --seed 1 --seconds 15 --trace 0
//	sh bench/run.sh -all -seed 1 [-runs 5] [-trace 1]
//	sh bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// setupRepeats is how many times a workload sets up at scale 1, so
	// that setup_s is a median and one slow start does not move it.
	setupRepeats = 3

	// miniScale is the scale at which a traced run executes the workloads
	// it was not asked for: every per-layer metric has one workload whose
	// measured phase produces it, and a traced run reports all of them.
	miniScale = 0.1

	defaultSeed = 1
)

// run carries one workload execution's knobs.
type run struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase
	scale    float64 // multiplies every fixed amount of work
	tr       *tracer // nil when untraced
	dir      string  // scratch space on the benchmark's disk
	yard     *yardstick
}

// n scales a fixed amount of work, never below one.
func (r *run) n(base int) int {
	if v := int(math.Round(float64(base) * r.scale)); v > 1 {
		return v
	}
	return 1
}

// outcome is what a workload hands back for reporting. Timings come in
// pairs: as the clock read them (raw*), and divided by the yardstick's
// factor for the slice they were taken in, which is what gets reported.
type outcome struct {
	setupS, rawSetupS []float64 // seconds, one per set-up repeat
	lat, rawLat       []int64   // ns per operation
	rates, rawRates   []float64 // operations per second, one per slice of the measured phase
	ops               int       // operations completed correctly
	heapMB            float64   // live heap once set-up is done
	allocKB           float64   // allocated per operation over the measured phase
	attempted         int       // operations plus audit checks
	failed            int
	offender          string             // the first failure, verbatim
	extra             map[string]float64 // the workload's own end-to-end extras
	layer             map[string]float64 // per-layer metrics of its measured phase
}

// addSetup records one set-up that took d while the host was f slow.
func (o *outcome) addSetup(d time.Duration, f float64) {
	o.rawSetupS = append(o.rawSetupS, d.Seconds())
	o.setupS = append(o.setupS, d.Seconds()/f)
}

// addSlice records one slice of the measured phase: ops operations in
// took, with these latencies, while the host was f slow.
func (o *outcome) addSlice(lat []int64, ops int, took time.Duration, f float64) {
	for _, ns := range lat {
		o.rawLat = append(o.rawLat, ns)
		o.lat = append(o.lat, int64(float64(ns)/f))
	}
	rate := float64(ops) / took.Seconds()
	o.rawRates = append(o.rawRates, rate)
	o.rates = append(o.rates, rate*f)
	o.ops += ops
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*run) (*outcome, error)
}

var workloads = []workloadDef{
	{"svc-decide", "every request a fresh instance, no fsync: serve + netsub + JSON wire do the work, wal almost none", runSvc},
	{"svc-durable", "the same traffic under SyncAlways: fsync dominates, so wal and group-commit changes show here and not on svc-decide", runSvc},
	{"svc-reads-recover", "60% idempotent re-submits, 30% queries, 10% fresh over 20000 preloaded decisions, then kill and restart a node: the read path and recovery", runSvc},
	{"sim-chaos", "a fault campaign in 250-run chunks: msgnet + faultnet + reliablelink + the eq. (3) check; serve, netsub and wal idle", runChaos},
	{"sim-paper", "passes over every experiment table in full mode: core, adversary, agreement, simulate, mc and the rest of the paper reproduction", runPaper},
}

// ungated is the one workload that runs, is audited and is reported
// like the rest — by name, under -all, and shortened inside every traced
// run — but is not in BENCHMARK.json and carries no bound. Its time is
// five or six fsyncs on a disk shared with other tenants, whose moods
// the yardstick does not see: ten runs of one commit spread by 28%
// corrected and 39% raw (README.md, "Baseline"). Its medians travel as
// the per-layer metrics loadgen.durable_p50_us and loadgen.durable_per_s.
const ungated = durableSrc

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run of one workload, as written to disk and compared.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Scale     float64            `json:"scale"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Offender  string             `json:"offender,omitempty"`
	Samples   int                `json:"samples"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Extra     map[string]float64 `json:"extra,omitempty"`
	Layer     map[string]float64 `json:"per_layer,omitempty"`
	SelfMS    map[string]float64 `json:"self_ms,omitempty"`
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", defaultSeed, "drives instance ids, values, server pins and the chaos seed")
		seconds  = flag.Float64("seconds", 15, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans, histograms attached")
		all      = flag.Bool("all", false, "run every workload, each in a fresh child process")
		runs     = flag.Int("runs", 1, "with -all: repeat the set this many times, run i under seed+i")
		scale    = flag.Float64("scale", 1, "multiply -seconds and every fixed amount of work (smoke runs)")
		outDir   = flag.String("out", "bench/out", "directory for results, traces and scratch WALs")
		repFile  = flag.String("report", "", "also write this run's report as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare BASE.json NEW.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files, got %d", flag.NArg())
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *all:
		err = runAll(*seed, *seconds, *scale, *trace == 1, *runs, *outDir)
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *scale, *trace == 1, *outDir, *repFile)
	default:
		err = fmt.Errorf("need -workload NAME, -all or -compare; see bench/README.md")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// runOne is the driver's entry: one workload, one process, the result
// as the last line of standard output.
func runOne(name string, seed int64, seconds, scale float64, traced bool, outDir, repFile string) error {
	// One processor whatever the machine has. On a small share of a
	// busy host, waking the other virtual processor is the largest single
	// source of noise: one experiment of sim-paper repeats to ±3.5% on one
	// processor and to ±25% on two, and the service workloads complete
	// no more requests a second on two than on one (README.md, "The host").
	runtime.GOMAXPROCS(1)
	rep, err := execute(name, seed, seconds, scale, traced, outDir)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	if repFile != "" {
		if err := writeJSON(repFile, rep); err != nil {
			return err
		}
	}
	line := driverLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]value{}}
	defs, vals := endToEnd, rep.EndToEnd
	if traced {
		defs, vals = perLayer, rep.Layer
	}
	for _, d := range defs {
		line.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d failed; first: %s", name, rep.Failed, rep.Attempted, rep.Offender)
	}
	return nil
}

// execute runs one workload and turns its outcome into a report. A
// traced run also runs the other workloads at miniScale and the ladder,
// so that it can report every per-layer metric.
func execute(name string, seed int64, seconds, scale float64, traced bool, outDir string) (*report, error) {
	def := findWorkload(name)
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if scale <= 0 || seconds <= 0 {
		return nil, fmt.Errorf("-seconds and -scale must be positive")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer removeAll(scratch)

	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer yard.close()
	r := &run{workload: name, seed: seed, seconds: seconds * scale, scale: scale, dir: filepath.Join(scratch, name), yard: yard}
	if traced {
		r.tr = newTracer()
	}
	out, err := def.run(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if yard.err != nil {
		return nil, fmt.Errorf("yardstick: %w", yard.err)
	}
	lat, rawLat := summarize(out.lat), summarize(out.rawLat)
	rep := &report{
		Workload: name, Seed: seed, Seconds: r.seconds, Scale: scale, Traced: traced,
		Attempted: out.attempted, Failed: out.failed, Offender: out.offender,
		Correct: out.failed == 0 && out.ops > 0,
		Samples: lat.N,
		EndToEnd: map[string]float64{
			"setup_s":         median(out.setupS),
			"op_p50_us":       lat.P50,
			"ops_per_s":       median(out.rates),
			"alloc_kb_per_op": out.allocKB,
		},
		Extra: out.extra,
	}
	rep.Extra["failed_share"] = float64(out.failed) / float64(max(out.attempted, 1))
	rep.Extra["host_factor"] = median(yard.factors)
	rep.Extra["raw_setup_s"], rep.Extra["raw_op_p50_us"], rep.Extra["raw_ops_per_s"] = median(out.rawSetupS), rawLat.P50, median(out.rawRates)
	rep.Extra["op_p90_us"], rep.Extra["op_p99_us"] = lat.P90, lat.P99
	rep.Extra["heap_mb"] = out.heapMB
	rep.Extra["peak_rss_mb"] = peakRSSMB()
	if !traced {
		return rep, nil
	}

	// Per-layer metrics: this workload's at full length, the others' from
	// a short traced run of each, the ladder's from the probes.
	layers := map[string]map[string]float64{name: out.layer}
	loadgenLayer(name, out)
	for _, other := range workloads {
		if other.Name == name {
			continue
		}
		mini := &run{
			workload: other.Name, seed: seed, seconds: r.seconds * miniScale, scale: scale * miniScale,
			tr: newTracer(), dir: filepath.Join(scratch, other.Name), yard: yard,
		}
		o, err := other.run(mini)
		if err != nil {
			return nil, fmt.Errorf("%s at mini scale: %w", other.Name, err)
		}
		loadgenLayer(other.Name, o)
		layers[other.Name] = o.layer
		rep.Attempted += o.attempted
		if rep.Failed += o.failed; o.failed > 0 {
			rep.Correct = false
			if rep.Offender == "" {
				rep.Offender = other.Name + ": " + o.offender
			}
		}
	}
	r.dir = filepath.Join(scratch, "ladder")
	if layers[ladderSrc], err = runLadder(r, r.tr.lane()); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	rep.Layer = map[string]float64{}
	for _, d := range perLayer {
		v, ok := layers[d.Source][d.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s missing from %s", d.Name, d.Source)
		}
		rep.Layer[d.Name] = v
	}

	spans := r.tr.spans()
	rep.SelfMS = map[string]float64{}
	for span, ns := range selfTimes(spans) {
		rep.SelfMS[span] = float64(ns) / 1e6
	}
	if err := writeChromeTrace(filepath.Join(outDir, name+".trace.json"), spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// loadgenLayer adds the load generator's own per-layer figures to o.
func loadgenLayer(workload string, o *outcome) {
	lat := summarize(o.lat)
	o.layer["loadgen.req_p99_us"], o.layer["loadgen.req_p999_us"] = lat.P99, lat.P999
	if workload == ungated {
		o.layer["loadgen.durable_p50_us"], o.layer["loadgen.durable_per_s"] = lat.P50, median(o.rates)
	}
}

// liveHeapMB is the heap still reachable after a forced collection.
// Workloads read it when set-up is done: set-up is a fixed amount of
// work, so the figure does not grow with how many operations the timed
// phase then happens to complete, as a peak over the whole run would.
func liveHeapMB() float64 {
	runtime.GC()
	return float64(readMem().HeapAlloc) / (1 << 20)
}

func readMem() (m runtime.MemStats) {
	runtime.ReadMemStats(&m)
	return m
}

// allocKB is the allocation per operation between two readings. It
// repeats to within a percent or two where every timing on a shared
// two-processor box wanders by ten.
func allocKB(before, after runtime.MemStats, ops int) float64 {
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(ops)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// printReport writes every metric as "workload metric value unit".
func printReport(w io.Writer, rep *report) {
	mode := "untraced"
	if rep.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%g scale=%g %s — loopback TCP, no injected message delay: latency is processor, kernel and disk time only\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Scale, mode)
	for _, d := range endToEnd {
		note := ""
		if strings.HasPrefix(d.Name, "op_p") {
			note = fmt.Sprintf("  (n=%d)", rep.Samples)
		}
		fmt.Fprintf(w, "%s %s %.6g %s%s\n", rep.Workload, d.Name, rep.EndToEnd[d.Name], d.Unit, note)
	}
	for _, name := range sortedKeys(rep.Extra) {
		fmt.Fprintf(w, "%s %s %.6g %s\n", rep.Workload, name, rep.Extra[name], extraUnits[name])
	}
	if rep.Failed > 0 {
		fmt.Fprintf(w, "%s FAILED %d of %d; first: %s\n", rep.Workload, rep.Failed, rep.Attempted, rep.Offender)
	}
	if !rep.Traced {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "%s %s %.6g %s  (from %s)\n", rep.Workload, d.Name, rep.Layer[d.Name], d.Unit, d.Source)
	}
	for _, name := range sortedKeys(rep.SelfMS) {
		fmt.Fprintf(w, "%s self.%s %.6g ms\n", rep.Workload, name, rep.SelfMS[name])
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// removeAll clears scratch space: a leftover directory is untidy, not
// a wrong result, so the error is dropped.
func removeAll(dir string) { _ = os.RemoveAll(dir) }

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
