package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp records where and how a result set was measured. Two sets
// compare only when everything but Commit agrees: the commit is what a
// comparison is about, the rest is what must be held still.
type stamp struct {
	Commit          string  `json:"commit"`
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	GoVersion       string  `json:"go_version"`
	Kernel          string  `json:"kernel"`
	WALFilesystem   string  `json:"wal_filesystem"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
	Scale           float64 `json:"scale"`
	Runs            int     `json:"runs"`
	SetupRepeats    int     `json:"setup_repeats"`
	InjectedDelayMS float64 `json:"injected_delay_ms"`
}

// resultSet is what -all writes and -compare reads.
type resultSet struct {
	Stamp   stamp     `json:"stamp"`
	Reports []*report `json:"reports"`
}

func newStamp(seed int64, seconds, scale float64, runs int, outDir string) stamp {
	st := stamp{
		Commit: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: 1, GoVersion: runtime.Version(),
		Kernel: "unknown", WALFilesystem: filesystemOf(outDir),
		Seed: seed, Seconds: seconds, Scale: scale, Runs: runs, SetupRepeats: setupRepeats,
	}
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	return st
}

// filesystemOf names the filesystem type holding dir, from the longest
// mount point in /proc/mounts that prefixes it.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, fs = mnt, f[2]
		}
	}
	return fs
}

// runAll runs every workload, each in a fresh child process so that
// peak RSS and garbage-collector state are per workload, and writes the
// set to <out>/result.json. With tracing, each workload runs untraced
// first and the traced ÷ untraced ratio of every end-to-end metric is
// printed as the tracing overhead; the end-to-end numbers themselves
// always come from the untraced run.
func runAll(seed int64, seconds, scale float64, traced bool, runs int, outDir string) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := &resultSet{Stamp: newStamp(seed, seconds, scale, runs, outDir)}
	fmt.Printf("# stamp %+v\n", set.Stamp)
	child := func(w string, s int64, trace int) (*report, error) {
		repFile := filepath.Join(outDir, fmt.Sprintf("%s.trace%d.report.json", w, trace))
		cmd := exec.Command(exe,
			"-workload", w, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds), "-scale", fmt.Sprint(scale),
			"-trace", fmt.Sprint(trace), "-out", outDir, "-report", repFile)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		b, err := os.ReadFile(repFile)
		if err != nil {
			return nil, fmt.Errorf("%s: %v (no report: %v)", w, runErr, err)
		}
		removeAll(repFile)
		rep := new(report)
		if err := json.Unmarshal(b, rep); err != nil {
			return nil, err
		}
		return rep, nil // a failed audit is in the report; the set is still written
	}
	ok := true
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			plain, err := child(w.Name, seed+int64(i), 0)
			if err != nil {
				return err
			}
			set.Reports = append(set.Reports, plain)
			ok = ok && plain.Correct
			if !traced {
				continue
			}
			tr, err := child(w.Name, seed+int64(i), 1)
			if err != nil {
				return err
			}
			set.Reports = append(set.Reports, tr)
			ok = ok && tr.Correct
			for _, d := range endToEnd {
				fmt.Printf("%s tracing_overhead.%s %.4g ratio  (traced %.6g ÷ untraced %.6g)\n",
					w.Name, d.Name, tr.EndToEnd[d.Name]/plain.EndToEnd[d.Name], tr.EndToEnd[d.Name], plain.EndToEnd[d.Name])
			}
		}
	}
	path := filepath.Join(outDir, "result.json")
	if err := writeJSON(path, set); err != nil {
		return err
	}
	printSummary(os.Stdout, set)
	fmt.Printf("# wrote %s\n", path)
	if !ok {
		return fmt.Errorf("at least one workload failed an audit")
	}
	return nil
}

// series collects one workload × end-to-end metric across a set's
// untraced runs.
func (s *resultSet) series(workload, metric string) []float64 {
	var xs []float64
	for _, rep := range s.Reports {
		if rep.Workload == workload && !rep.Traced {
			xs = append(xs, rep.EndToEnd[metric])
		}
	}
	return xs
}

func printSummary(w io.Writer, set *resultSet) {
	fmt.Fprintf(w, "\n%-18s %-12s %14s %-5s %8s %6s  %s\n", "workload", "metric", "median", "unit", "spread", "bound", "runs")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xs := set.series(wl.Name, d.Name)
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			if wl.Name == ungated {
				bound = "none"
			}
			fmt.Fprintf(w, "%-18s %-12s %14.6g %-5s %7.1f%% %6s  %d\n",
				wl.Name, d.Name, median(xs), d.Unit, 100*quartileSpread(xs), bound, len(xs))
		}
	}
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := new(resultSet)
	if err := json.Unmarshal(b, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareFiles applies each end-to-end metric's own bound to every
// gated workload: one row per pairing with the base median and the ratio. A
// pairing whose run-to-run spread, on either side, exceeds the bound is
// unresolved rather than unchanged — unless every new run beats every
// base run. Any regression, unresolved pairing or failed audit is an
// error.
func compareFiles(w io.Writer, basePath, newPath string) error {
	base, err := readSet(basePath)
	if err != nil {
		return err
	}
	cur, err := readSet(newPath)
	if err != nil {
		return err
	}
	a, b := base.Stamp, cur.Stamp
	a.Commit, b.Commit = "", ""
	if a != b {
		return fmt.Errorf("the two sets were not measured alike and do not compare:\n  base %+v\n  new  %+v", base.Stamp, cur.Stamp)
	}
	fmt.Fprintf(w, "base %s (%s), new %s (%s)\n", basePath, base.Stamp.Commit, newPath, cur.Stamp.Commit)
	fmt.Fprintf(w, "%-18s %-12s %14s %14s %7s %6s %7s %7s  %s\n",
		"workload", "metric", "base", "new", "ratio", "bound", "spreadA", "spreadB", "verdict")
	bad := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := base.series(wl.Name, d.Name), cur.series(wl.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return fmt.Errorf("%s %s: missing from one of the sets", wl.Name, d.Name)
			}
			ma, mb := median(xa), median(xb)
			worse := mb/ma - 1 // the share by which the new median is worse
			if d.Better == "higher" {
				worse = 1 - mb/ma
			}
			sa, sb := quartileSpread(xa), quartileSpread(xb)
			verdict := "ok"
			switch {
			case wl.Name == ungated:
				verdict = "not gated"
			case (sa > d.Bound || sb > d.Bound) && !allBetter(xa, xb, d.Better):
				verdict = "unresolved"
				bad++
			case worse > d.Bound:
				verdict = "REGRESSION"
				bad++
			}
			fmt.Fprintf(w, "%-18s %-12s %14.6g %14.6g %7.3f %5.0f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, d.Name, ma, mb, mb/ma, 100*d.Bound, 100*sa, 100*sb, verdict)
		}
	}
	for _, set := range []*resultSet{base, cur} {
		for _, rep := range set.Reports {
			if !rep.Correct {
				fmt.Fprintf(w, "%s seed %d failed %d of %d: %s\n", rep.Workload, rep.Seed, rep.Failed, rep.Attempted, rep.Offender)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d pairings regressed, are unresolved, or failed an audit", bad)
	}
	return nil
}

// allBetter reports whether every new run reads better than every base
// run.
func allBetter(base, cur []float64, better string) bool {
	for _, b := range cur {
		for _, a := range base {
			if (better == "lower" && b >= a) || (better == "higher" && b <= a) {
				return false
			}
		}
	}
	return true
}
