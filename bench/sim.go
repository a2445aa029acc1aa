package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/exp"
	"repro/internal/obs/hist"
)

// simWorkers is the worker count of both simulation workloads: the one
// processor runOne allows.
const simWorkers = 1

// chaosChunk is how many fault-injected executions one chaos.Run call
// makes. The campaign is cut into chunks so that it can stop at the time
// limit and so that the yardstick is sampled every 0.6 s or so; a chunk
// is one slice and gives one latency sample, its time ÷ its runs.
const chaosChunk = 250

// chaosWarm is the size of the set-up campaign.
const chaosWarm = 200

// chaosGolden is chunk 0's Summary.String() for seed 1 at scale 1. The
// summary is a pure function of the seed, so any other string means the
// substrate, the links or the checker changed behaviour.
const chaosGolden = "chaos: 250 runs, 0 violations, 1277 decided, 223 undecided, 47 stalls, 91723 retransmissions, 0 give-ups, 343652 steps"

func chaosConfig(seed int64, chunk, runs, workers int) chaos.Config {
	return chaos.Config{
		N: 6, F: 2, K: 3,
		Runs:      runs,
		Seed:      seed*1_000_003 + int64(chunk) + 1, // never 0, which chaos reads as 1
		DropRate:  0.3,
		DupRate:   0.3,
		DelayRate: 0.4, OmitRate: 0.4, PartitionRate: 0.5,
		MaxCrashes: 2,
		Workers:    workers,
	}
}

// runChaos pushes a fault campaign through msgnet + faultnet +
// reliablelink + the eq. (3) check for r.seconds. One operation is one
// fault-injected execution; its time is the chunk's wall time divided
// by the chunk's runs, since chaos.Run exports no per-run time unless
// telemetry is attached.
func runChaos(r *run) (*outcome, error) {
	out := &outcome{extra: map[string]float64{}, layer: map[string]float64{}}
	l := r.tr.lane()
	root := l.begin(0, r.workload)
	defer func() { l.end(root) }()
	runs := r.n(chaosChunk)

	// Set-up is what a campaign pays before it runs at full speed: a
	// short campaign that faults in the code and grows the heap.
	for i := 0; i < r.n(setupRepeats); i++ {
		sp := l.begin(root.id, "setup")
		t0 := time.Now()
		if s := chaos.Run(chaosConfig(r.seed, -1-i, r.n(chaosWarm), simWorkers)); !s.Ok() {
			return nil, fmt.Errorf("warm-up campaign: %s", s)
		}
		d := time.Since(t0)
		l.end(sp)
		out.addSetup(d, r.yard.sample())
	}

	out.heapMB = liveHeapMB()

	var reg *hist.Registry
	if r.tr != nil {
		reg = hist.NewRegistry()
	}
	var first *chaos.Summary
	m0 := readMem()
	camp := l.begin(root.id, "campaign")
	start := time.Now()
	for chunk := 0; chunk == 0 || time.Since(start).Seconds() < r.seconds; chunk++ {
		cfg := chaosConfig(r.seed, chunk, runs, simWorkers)
		cfg.Telemetry = reg
		sp := l.begin(camp.id, "chunk")
		t0 := time.Now()
		s := chaos.Run(cfg)
		d := time.Since(t0)
		l.end(sp)
		out.addSlice([]int64{int64(d) / int64(runs)}, runs, d, r.yard.sample())
		out.failed += len(s.Violations)
		if !s.Ok() && out.offender == "" {
			out.offender = s.Violations[0].String()
		}
		if chunk == 0 {
			first = s
		}
	}
	l.end(camp)
	m1 := readMem()
	out.allocKB = allocKB(m0, m1, out.ops)
	out.attempted = out.ops

	sp := l.begin(root.id, "audit")
	if r.seed == 1 && r.scale == 1 {
		out.attempted++
		if got := first.String(); got != chaosGolden {
			out.failed++
			if out.offender == "" {
				out.offender = fmt.Sprintf("chunk 0 summary %q, golden %q", got, chaosGolden)
			}
		}
	}
	l.end(sp)

	if r.tr != nil {
		lay, n := out.layer, float64(first.Runs)
		// Exact counts come from chunk 0 alone: how many chunks fit in
		// the time limit varies, what chunk 0 does for a seed does not.
		lay["msgnet.steps_per_run"] = float64(first.Steps) / n
		lay["reliablelink.retransmits_per_run"] = float64(first.Retransmissions) / n
		lay["reliablelink.stalls_per_run"] = float64(first.Stalls) / n
		lay["reliablelink.giveups_per_run"] = float64(first.GiveUps) / n
		lay["chaos.run_wall_p50_us"] = float64(reg.Get("chaos_run_wall_ns").Quantile(0.5)) / 1e3
		lay["chaos.allocs_per_run"] = float64(m1.Mallocs-m0.Mallocs) / float64(out.ops)

		// par.speedup: chunk 0 again, at one worker and at two — the
		// one probe that gets a second processor, for as long as it lasts.
		sp := l.begin(root.id, "par-speedup")
		procs := runtime.GOMAXPROCS(2)
		var rate [3]float64
		for w := 1; w <= 2; w++ {
			t0 := time.Now()
			chaos.Run(chaosConfig(r.seed, 0, runs, w))
			rate[w] = 1 / time.Since(t0).Seconds()
		}
		runtime.GOMAXPROCS(procs)
		lay["par.speedup"] = rate[2] / rate[1]
		l.end(sp)
	}
	return out, nil
}

// paperGolden is the SHA-256 of every exp.All() table, rendered in
// order, in full mode. The tables carry no wall-clock figures, so they
// are byte-identical run to run.
const paperGolden = "9907e3ab849bbfc11d8c028fea26f4ed4f71cc74d4f7d82e97eddfe76f34f98c"

// runPaper regenerates every table of the paper reproduction, pass
// after pass, for r.seconds. One operation is one pass over exp.All().
// The seed is unused: the experiments fix their own seeds.
func runPaper(r *run) (*outcome, error) {
	out := &outcome{extra: map[string]float64{}, layer: map[string]float64{}}
	l := r.tr.lane()
	root := l.begin(0, r.workload)
	defer func() { l.end(root) }()
	exp.SetWorkers(simWorkers)
	// Smoke runs use the runners' quick mode; anything from miniScale up
	// runs full mode, so exp.*_ms means the same in every traced run.
	full := r.scale >= miniScale

	// pass runs every experiment once and hashes the rendered tables. A
	// measured pass (perRunner set) samples the yardstick after every
	// experiment: raw is the pass without those samples, corrected the
	// same with each experiment's time divided by its own factor.
	pass := func(parent int32, quick bool, perRunner map[string][]float64) (sum string, raw, corrected time.Duration) {
		h := sha256.New()
		var buf bytes.Buffer
		for _, e := range exp.All() {
			sp := l.begin(parent, e.ID)
			t0 := time.Now()
			table, err := e.Run(quick)
			if err == nil {
				buf.Reset()
				table.Fprint(&buf)
				h.Write(buf.Bytes())
			}
			d := time.Since(t0)
			l.end(sp)
			raw += d
			out.attempted++
			if err != nil {
				out.failed++
				if out.offender == "" {
					out.offender = fmt.Sprintf("%s: %v", e.ID, err)
				}
			}
			if perRunner != nil {
				perRunner[e.ID] = append(perRunner[e.ID], ms(d))
				corrected += time.Duration(float64(d) / r.yard.sample())
			}
		}
		return hex.EncodeToString(h.Sum(nil)), raw, corrected
	}

	// Set-up is a quick-mode pass: everything a full pass touches gets
	// faulted in at a fraction of its cost.
	for i := 0; i < r.n(setupRepeats); i++ {
		sp := l.begin(root.id, "setup")
		_, d, _ := pass(sp.id, true, nil)
		l.end(sp)
		out.addSetup(d, r.yard.sample())
	}
	if out.failed > 0 {
		return nil, fmt.Errorf("quick-mode pass: %s", out.offender)
	}
	out.attempted = 0
	out.heapMB = liveHeapMB()
	m0 := readMem()

	perRunner := map[string][]float64{}
	want := paperGolden
	start := time.Now()
	for p := 0; p == 0 || time.Since(start).Seconds() < r.seconds; p++ {
		sp := l.begin(root.id, "pass")
		sum, raw, corrected := pass(sp.id, !full, perRunner)
		l.end(sp)
		out.addSlice([]int64{int64(raw)}, 1, raw, float64(raw)/float64(corrected))
		out.attempted++ // the hash check
		if !full && p == 0 {
			want = sum // quick mode has no golden; its passes must still agree
		}
		if sum != want {
			out.failed++
			if out.offender == "" {
				out.offender = fmt.Sprintf("pass %d tables hash %s, want %s", p, sum, want)
			}
		}
	}

	out.allocKB = allocKB(m0, readMem(), out.ops)
	if r.tr != nil {
		for id, times := range perRunner {
			out.layer["exp."+id+"_ms"] = median(times)
		}
	}
	return out, nil
}
