// Command benchstatjson converts `go test -bench` text output into a JSON
// benchmark record, seeding the repo's performance trajectory: every perf
// PR regenerates BENCH_core.json (make bench) and diffs it against the
// committed one.
//
// It reads benchmark output on stdin, echoes it through to stdout (so it
// can sit at the end of a pipe without hiding the run), and writes the
// aggregated JSON to the -o file. Repeated runs of the same benchmark
// (-count > 1) are aggregated into mean and min ns/op.
//
// With -compare FILE it becomes a regression gate instead: the fresh run on
// stdin is diffed against the checked-in baseline JSON, and any benchmark
// whose ns/op or allocs/op regressed beyond the thresholds fails the
// invocation (exit 1). ns/op comparisons use the per-name minimum — the
// least noisy statistic a short CI run produces. A row is graded only
// against a baseline row at the same GOMAXPROCS; a mismatch, a new and a
// vanished benchmark are reported but do not fail the gate. Refresh the
// baseline (make bench) when coverage changes.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/core | go run ./cmd/benchstatjson -o BENCH_core.json
//	go test -run '^$' -bench . -benchmem ./internal/core | go run ./cmd/benchstatjson -compare BENCH_core.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurements.
type Result struct {
	// Name is the benchmark name without the "Benchmark" prefix or the
	// -GOMAXPROCS suffix (e.g. "EngineRounds/n=16").
	Name string `json:"name"`

	// Procs is the GOMAXPROCS the row ran at: the line's -N suffix, or 1
	// where go test prints none. A baseline row without it counts as 1.
	Procs int `json:"procs"`

	// Runs is how many times the benchmark line appeared (go test -count).
	Runs int `json:"runs"`

	// Iterations is the b.N of the last run.
	Iterations int64 `json:"iterations"`

	// NsPerOp aggregates ns/op across runs.
	NsPerOpMean float64 `json:"ns_per_op_mean"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`

	// BytesPerOp and AllocsPerOp are present with -benchmem (last run).
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`

	// Metrics holds custom b.ReportMetric values (last run).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the emitted JSON document.
type File struct {
	Goos      string   `json:"goos"`
	Goarch    string   `json:"goarch"`
	GoVersion string   `json:"go_version"`
	Results   []Result `json:"results"`
}

// benchLine matches one result line:
//
//	BenchmarkEngineRounds/n=16-8   5647   110880 ns/op   10.00 rounds/run
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-(\d+))?\s+(\d+)\s+(\d+(?:\.\d+)?) ns/op(.*)$`)

// extraStat matches trailing "<value> <unit>" pairs (B/op, allocs/op,
// custom metrics).
var extraStat = regexp.MustCompile(`(\d+(?:\.\d+)?) (\S+)`)

func main() {
	out := flag.String("o", "BENCH_core.json", "output JSON file")
	compareFile := flag.String("compare", "", "compare the fresh run against this baseline JSON instead of writing (exit 1 on regressions)")
	nsThresh := flag.Float64("ns-threshold", 0.20, "compare: max tolerated ns/op regression as a fraction (0.20 = +20%)")
	allocThresh := flag.Float64("allocs-threshold", 0.20, "compare: max tolerated allocs/op regression as a fraction")
	flag.Parse()

	results, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchstatjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *compareFile != "" {
		raw, err := os.ReadFile(*compareFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var baseline File
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchstatjson: bad baseline %s: %v\n", *compareFile, err)
			os.Exit(1)
		}
		regressions := compare(results, baseline, *nsThresh, *allocThresh, os.Stderr)
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchstatjson: %d regression(s) vs %s\n", regressions, *compareFile)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchstatjson: no regressions vs %s\n", *compareFile)
		return
	}

	doc := File{
		Goos:      runtime.GOOS,
		Goarch:    runtime.GOARCH,
		GoVersion: runtime.Version(),
		Results:   results,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchstatjson: %d benchmarks → %s\n", len(results), *out)
}

// rowKey identifies a row: one benchmark at one GOMAXPROCS.
type rowKey struct {
	name  string
	procs int
}

// procs is the row's GOMAXPROCS; a row written before rows carried it ran
// at 1.
func (r Result) procs() int { return max(r.Procs, 1) }

// label is the row as go test names it: with the -N suffix unless N is 1.
func (r Result) label() string {
	if r.Procs > 1 {
		return fmt.Sprintf("%s-%d", r.Name, r.Procs)
	}
	return r.Name
}

// parse reads benchmark output from r, echoing every line to echo, and
// returns the aggregated results sorted by name, then procs.
func parse(r io.Reader, echo io.Writer) ([]Result, error) {
	byKey := make(map[rowKey]*Result)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		procs := 1
		if m[2] != "" {
			procs, _ = strconv.Atoi(m[2])
		}
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		nsPerOp, _ := strconv.ParseFloat(m[4], 64)
		k := rowKey{m[1], procs}
		res := byKey[k]
		if res == nil {
			res = &Result{Name: k.name, Procs: procs, NsPerOpMin: nsPerOp}
			byKey[k] = res
		}
		res.Runs++
		res.Iterations = iters
		res.NsPerOpMean += (nsPerOp - res.NsPerOpMean) / float64(res.Runs)
		if nsPerOp < res.NsPerOpMin {
			res.NsPerOpMin = nsPerOp
		}
		for _, stat := range extraStat.FindAllStringSubmatch(m[5], -1) {
			v, _ := strconv.ParseFloat(stat[1], 64)
			switch unit := stat[2]; unit {
			case "B/op":
				n := int64(v)
				res.BytesPerOp = &n
			case "allocs/op":
				n := int64(v)
				res.AllocsPerOp = &n
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchstatjson: read: %w", err)
	}
	out := make([]Result, 0, len(byKey))
	for _, res := range byKey {
		out = append(out, *res)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Procs < out[j].Procs
	})
	return out, nil
}

// compare diffs the fresh results against the baseline and writes one line
// per row to w. It returns the number of regressions: rows present in both
// at the same GOMAXPROCS whose ns/op minimum or allocs/op exceeded the
// baseline by more than the given fractional thresholds. A benchmark the
// baseline holds only at other GOMAXPROCS ("mismatch"), one only in the
// fresh run ("new") and one only in the baseline ("vanished") are reported
// but never counted — none is a like-for-like measurement.
func compare(fresh []Result, baseline File, nsThresh, allocThresh float64, w io.Writer) int {
	base := make(map[rowKey]Result, len(baseline.Results))
	baseProcs := make(map[string][]int)
	for _, r := range baseline.Results {
		base[rowKey{r.Name, r.procs()}] = r
		baseProcs[r.Name] = append(baseProcs[r.Name], r.procs())
	}
	regressions := 0
	seen := make(map[string]bool, len(fresh))
	for _, f := range fresh {
		seen[f.Name] = true
		b, ok := base[rowKey{f.Name, f.procs()}]
		if !ok && baseProcs[f.Name] != nil {
			fmt.Fprintf(w, "  mismatch  %s: ran at GOMAXPROCS %d, baseline at %v (not graded)\n",
				f.Name, f.procs(), baseProcs[f.Name])
			continue
		}
		if !ok {
			fmt.Fprintf(w, "  new       %s: %.0f ns/op (no baseline)\n", f.label(), f.NsPerOpMin)
			continue
		}
		status := "ok"
		if b.NsPerOpMin > 0 {
			if f.NsPerOpMin > b.NsPerOpMin*(1+nsThresh) {
				status = "REGRESSED"
				regressions++
			}
			fmt.Fprintf(w, "  %-9s %s: ns/op %.0f → %.0f (%+.1f%%, limit +%.0f%%)\n",
				status, f.label(), b.NsPerOpMin, f.NsPerOpMin,
				100*(f.NsPerOpMin-b.NsPerOpMin)/b.NsPerOpMin, 100*nsThresh)
		}
		if b.AllocsPerOp != nil && f.AllocsPerOp != nil {
			ba, fa := *b.AllocsPerOp, *f.AllocsPerOp
			if float64(fa) > float64(ba)*(1+allocThresh) {
				regressions++
				fmt.Fprintf(w, "  REGRESSED %s: allocs/op %d → %d (limit +%.0f%%)\n",
					f.label(), ba, fa, 100*allocThresh)
			}
		}
	}
	for _, b := range baseline.Results {
		if !seen[b.Name] {
			fmt.Fprintf(w, "  vanished  %s: in baseline but not in this run\n", b.label())
		}
	}
	return regressions
}

// round2 is used by tests to compare floats tolerantly.
func round2(f float64) float64 {
	s := strconv.FormatFloat(f, 'f', 2, 64)
	v, _ := strconv.ParseFloat(strings.TrimRight(s, "0"), 64)
	return v
}
