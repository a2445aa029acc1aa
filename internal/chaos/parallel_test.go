package chaos

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
)

// campaign runs one fixed campaign at the given worker count and returns
// the rendered summary plus everything written to Out — the two artifacts
// the determinism contract promises are byte-identical across worker
// counts.
func campaign(workers int, quorumBug bool) (string, string) {
	var out bytes.Buffer
	sum := Run(Config{
		N: 6, F: 2, K: 3,
		Runs:          40,
		Seed:          13,
		DropRate:      0.6,
		DelayRate:     0.3,
		PartitionRate: 0.4,
		MaxCrashes:    1,
		WatchdogSteps: 300,
		QuorumBug:     quorumBug,
		Workers:       workers,
		Out:           &out,
	})
	return sum.String(), out.String()
}

func TestRunParallelByteIdentical(t *testing.T) {
	wantSum, wantOut := campaign(1, false)
	for _, workers := range []int{0, 2, 8} {
		gotSum, gotOut := campaign(workers, false)
		if gotSum != wantSum {
			t.Fatalf("workers=%d summary differs:\n%s\nvs workers=1:\n%s", workers, gotSum, wantSum)
		}
		if gotOut != wantOut {
			t.Fatalf("workers=%d Out stream differs:\n%q\nvs workers=1:\n%q", workers, gotOut, wantOut)
		}
	}
}

// TestCampaignIndependentOfGOMAXPROCS: the substrate's coroutines run on
// whichever par worker resumes them, on as many processors as there are —
// the campaign may not depend on either.
func TestCampaignIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	wantSum, wantOut := campaign(1, false)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if gotSum, gotOut := campaign(2, false); gotSum != wantSum || gotOut != wantOut {
			t.Fatalf("GOMAXPROCS=%d differs:\n%s\n%q\nvs GOMAXPROCS=1:\n%s\n%q", procs, gotSum, gotOut, wantSum, wantOut)
		}
	}
}

// TestRunParallelByteIdenticalWithViolations exercises the violation path
// — minimization and per-violation reporting — under parallelism: a
// planted quorum bug must yield the same violations, in the same order,
// with the same replay recipes, whatever the worker count.
func TestRunParallelByteIdenticalWithViolations(t *testing.T) {
	wantSum, wantOut := campaign(1, true)
	gotSum, gotOut := campaign(8, true)
	if wantSum == "" || len(wantOut) == 0 {
		t.Fatal("planted bug produced no output to compare")
	}
	if gotSum != wantSum {
		t.Fatalf("workers=8 summary differs:\n%s\nvs workers=1:\n%s", gotSum, wantSum)
	}
	if gotOut != wantOut {
		t.Fatalf("workers=8 Out stream differs:\n%q\nvs workers=1:\n%q", gotOut, wantOut)
	}
}

func TestRunRecoverParallelByteIdentical(t *testing.T) {
	recoverCampaign := func(workers int) (string, string) {
		var out bytes.Buffer
		sum := RunRecover(RecoverConfig{
			Runs:     40,
			Seed:     42,
			DropRate: 0.15,
			Workers:  workers,
			Out:      &out,
		})
		return sum.String(), out.String()
	}
	wantSum, wantOut := recoverCampaign(1)
	for _, workers := range []int{0, 8} {
		gotSum, gotOut := recoverCampaign(workers)
		if gotSum != wantSum {
			t.Fatalf("workers=%d summary differs:\n%s\nvs workers=1:\n%s", workers, gotSum, wantSum)
		}
		if gotOut != wantOut {
			t.Fatalf("workers=%d Out stream differs:\n%q\nvs workers=1:\n%q", workers, gotOut, wantOut)
		}
	}
}

// amnesiaCampaign is a planted-bug recover campaign in which several runs
// (15 and 18) have more than one process breaking durability, so which one
// the audit names is visible in the summary and the Out stream.
func amnesiaCampaign(workers int) (string, string) {
	var out bytes.Buffer
	sum := RunRecover(RecoverConfig{
		N: 7, F: 3,
		Rounds:        6,
		Runs:          19,
		Seed:          11,
		MaxCrashes:    3,
		restartChance: 1,
		AmnesiaBug:    true,
		Workers:       workers,
		Out:           &out,
	})
	return sum.String(), out.String()
}

// TestRunRecoverViolationsByteIdentical: a fixed-seed violating campaign
// is a pure function of the seed — the audit walks processes in PID order,
// so repeated and parallel invocations name the same offenders.
func TestRunRecoverViolationsByteIdentical(t *testing.T) {
	wantSum, wantOut := amnesiaCampaign(1)
	if !strings.Contains(wantOut, "durability violation") {
		t.Fatalf("planted bug produced no durability violation:\n%s", wantOut)
	}
	for _, workers := range []int{1, 1, 8} {
		gotSum, gotOut := amnesiaCampaign(workers)
		if gotSum != wantSum {
			t.Fatalf("workers=%d summary differs:\n%s\nvs the first invocation:\n%s", workers, gotSum, wantSum)
		}
		if gotOut != wantOut {
			t.Fatalf("workers=%d Out stream differs:\n%q\nvs the first invocation:\n%q", workers, gotOut, wantOut)
		}
	}
}

// BenchmarkChaosCampaign measures end-to-end campaign throughput at
// several worker counts; on a multi-core runner workers=8 should approach
// an 8x speedup over workers=1 (runs are independent and CPU-bound).
func BenchmarkChaosCampaign(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{
				N: 6, F: 2, K: 3,
				Runs:     16,
				Seed:     7,
				DropRate: 0.3,
				Workers:  workers,
			}
			// The hand-overs of one campaign, counted off an untimed pass
			// over the same sixteen scenarios: Run keeps no node to read.
			wakes := 0
			if workers == 1 {
				eachRun(cfg, func(_ int, sched int64, plan faultnet.Plan, crashes map[core.PID]int) {
					_, tl, _ := executeOn(cfg, sched, plan, crashes, native)
					wakes += tl.wakes
				})
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if sum := Run(cfg); !sum.Ok() {
					b.Fatalf("benchmark campaign violated safety:\n%s", sum)
				}
			}
			b.ReportMetric(16, "runs/op")
			if workers == 1 {
				b.ReportMetric(float64(wakes), "wakes/op")
			}
		})
	}
}
