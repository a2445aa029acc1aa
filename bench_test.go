package rrfd_test

// One testing.B benchmark per experiment table (E01–E15, DESIGN.md §5).
// Each benchmark times the experiment's central workload and reports the
// domain quantity the paper predicts as a custom metric, so
// `go test -bench=. -benchmem` regenerates the shape of every result.

import (
	"testing"

	rrfd "repro"
	"repro/internal/exp"
)

func identityInputs(n int) []rrfd.Value {
	inputs := make([]rrfd.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	return inputs
}

func BenchmarkE01SyncOmission(b *testing.B) {
	n, f := 8, 3
	pred := rrfd.SendOmission(f)
	for i := 0; i < b.N; i++ {
		tr, err := rrfd.CollectTrace(n, 10, rrfd.Omission(n, f, 0.8, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := pred.Check(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE02CrashSubmodel(b *testing.B) {
	n, f := 8, 3
	crash, omission := rrfd.SyncCrash(f), rrfd.SendOmission(f)
	for i := 0; i < b.N; i++ {
		tr, err := rrfd.CollectTrace(n, 12, rrfd.Crash(n, f, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := crash.Check(tr); err != nil {
			b.Fatal(err)
		}
		if err := omission.Check(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE03AsyncRounds(b *testing.B) {
	n, f, rounds := 6, 2, 6
	pred := rrfd.PerRoundBudget(f)
	steps := 0
	for i := 0; i < b.N; i++ {
		out, err := rrfd.RunNetworkRounds(n, f, rounds, rrfd.NetConfig{Chooser: rrfd.Seeded(int64(i))}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := pred.Check(out.Trace); err != nil {
			b.Fatal(err)
		}
		steps += out.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N)/float64(rounds), "netops/round")
}

func BenchmarkE04SharedMemory(b *testing.B) {
	n, f := 7, 3
	pred := rrfd.SharedMemory(f)
	for i := 0; i < b.N; i++ {
		out, err := rrfd.RunNetworkRounds(n, f, 6, rrfd.NetConfig{Chooser: rrfd.Seeded(int64(i))}, nil)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := rrfd.TwoRoundsToSharedMemory(out.Trace)
		if err != nil {
			b.Fatal(err)
		}
		if err := pred.Check(sim); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE05Snapshot(b *testing.B) {
	n, f, rounds := 5, 2, 4
	pred := rrfd.AtomicSnapshot(f)
	for i := 0; i < b.N; i++ {
		out, err := rrfd.RunSnapshotRounds(n, f, rounds, rrfd.SharedConfig{Chooser: rrfd.SeededChooser(int64(i))}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := pred.Check(out.Trace); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE06ConsensusS(b *testing.B) {
	n := 7
	inputs := identityInputs(n)
	rounds := 0
	for i := 0; i < b.N; i++ {
		res, err := rrfd.Run(n, inputs, rrfd.RotatingCoordinator(),
			rrfd.SpareNeverSuspected(n, rrfd.PID(i%n), int64(i)), rrfd.WithoutTrace())
		if err != nil {
			b.Fatal(err)
		}
		if err := rrfd.ValidateAgreement(res, inputs, 1, n); err != nil {
			b.Fatal(err)
		}
		rounds += res.Rounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/decision")
}

func BenchmarkE07OneRoundKSet(b *testing.B) {
	n, k := 16, 4
	inputs := identityInputs(n)
	distinct := 0
	for i := 0; i < b.N; i++ {
		res, err := rrfd.Run(n, inputs, rrfd.OneRoundKSet(),
			rrfd.KSetUncertainty(n, k, int64(i)), rrfd.WithoutTrace())
		if err != nil {
			b.Fatal(err)
		}
		if err := rrfd.ValidateAgreement(res, inputs, k, 1); err != nil {
			b.Fatal(err)
		}
		distinct += res.DistinctOutputs()
	}
	b.ReportMetric(float64(distinct)/float64(b.N), "distinct/run")
	b.ReportMetric(1, "rounds/decision")
}

func BenchmarkE08KSetSharedMem(b *testing.B) {
	n, k := 6, 2
	for i := 0; i < b.N; i++ {
		emit := func(me rrfd.PID, r int, _ map[rrfd.PID]rrfd.Value, _ rrfd.Set) rrfd.Value {
			return int(me)
		}
		cfg := rrfd.SharedConfig{
			Chooser: rrfd.SeededChooser(int64(i)),
			Crash:   map[rrfd.PID]int{rrfd.PID(n - 1): i % 30},
		}
		out, err := rrfd.RunSnapshotRounds(n, k-1, 1, cfg, emit)
		if err != nil {
			b.Fatal(err)
		}
		distinct := make(map[rrfd.Value]bool)
		for _, views := range out.Views {
			if len(views) < 1 {
				continue
			}
			best := rrfd.PID(-1)
			for from := range views[0] {
				if best < 0 || from < best {
					best = from
				}
			}
			distinct[views[0][best]] = true
		}
		if len(distinct) > k {
			b.Fatalf("%d distinct outputs", len(distinct))
		}
	}
}

func BenchmarkE09DetectorFromKSet(b *testing.B) {
	n, k := 5, 2
	pred := rrfd.KSetDetector(k)
	for i := 0; i < b.N; i++ {
		tr, err := exp.DetectorFromKSet(n, k, 3, rrfd.SharedConfig{Chooser: rrfd.SeededChooser(int64(i))})
		if err != nil {
			b.Fatal(err)
		}
		if err := pred.Check(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10OmissionSim(b *testing.B) {
	n, f, k := 8, 4, 2
	pred := rrfd.SendOmission(f)
	for i := 0; i < b.N; i++ {
		base, err := rrfd.CollectTrace(n, f/k+2, rrfd.SnapshotChain(n, k, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		sim, err := rrfd.OmissionPrefix(base, f, k)
		if err != nil {
			b.Fatal(err)
		}
		if err := pred.Check(sim); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11AdoptCommit(b *testing.B) {
	n := 4
	for i := 0; i < b.N; i++ {
		out, err := rrfd.RunShared(n, rrfd.SharedConfig{Chooser: rrfd.SeededChooser(int64(i))},
			func(p *rrfd.SharedProc) (rrfd.Value, error) {
				o, err := rrfd.AdoptCommit(p, "b", int(p.Me)%2)
				if err != nil {
					return nil, err
				}
				return o, nil
			})
		if err != nil {
			b.Fatal(err)
		}
		var committed rrfd.Value
		for _, v := range out.Values {
			o := v.(rrfd.AdoptCommitOutcome)
			if o.Grade == rrfd.Commit {
				if committed != nil && committed != o.Value {
					b.Fatal("two committed values")
				}
				committed = o.Value
			}
		}
	}
	b.ReportMetric(float64(2*n+2), "ops/proc")
}

func BenchmarkE12CrashSim(b *testing.B) {
	n, f, k := 6, 4, 2
	rounds := f / k
	inputs := identityInputs(n)
	pred := rrfd.SyncCrash(f)
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := rrfd.CrashSync(n, f, k, rounds,
			rrfd.SharedConfig{Chooser: rrfd.SeededChooser(int64(i))},
			rrfd.FloodMin(rounds), inputs)
		if err != nil {
			b.Fatal(err)
		}
		if err := pred.Check(res.Result.Trace); err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N)/float64(rounds), "memops/syncround")
}

func BenchmarkE13LowerBound(b *testing.B) {
	n, f, k := 10, 4, 2
	inputs := identityInputs(n)
	full, trunc := 0, 0
	for i := 0; i < b.N; i++ {
		res, err := rrfd.Run(n, inputs, rrfd.FloodMin(f/k+1), rrfd.ChainCrash(n, f, k), rrfd.WithoutTrace())
		if err != nil {
			b.Fatal(err)
		}
		full += res.DistinctOutputs()
		res, err = rrfd.Run(n, inputs, rrfd.FloodMin(f/k), rrfd.ChainCrash(n, f, k), rrfd.WithoutTrace())
		if err != nil {
			b.Fatal(err)
		}
		trunc += res.DistinctOutputs()
	}
	b.ReportMetric(float64(full)/float64(b.N), "distinct@f/k+1")
	b.ReportMetric(float64(trunc)/float64(b.N), "distinct@f/k")
}

func BenchmarkE14SemiSync(b *testing.B) {
	n := 32
	inputs := identityInputs(n)
	fastSteps, slowSteps := 0, 0
	for i := 0; i < b.N; i++ {
		fast, err := rrfd.RunTwoStep(n, 1, rrfd.SemiConfig{Chooser: rrfd.Seeded(int64(i))}, inputs)
		if err != nil {
			b.Fatal(err)
		}
		fastSteps += fast.Outcome.MaxDecisionSteps()
		slow, err := rrfd.RunSemiSync(n, rrfd.SemiConfig{Chooser: rrfd.RoundRobin()},
			rrfd.RelayFactory(), inputs)
		if err != nil {
			b.Fatal(err)
		}
		slowSteps += slow.MaxDecisionSteps()
	}
	b.ReportMetric(float64(fastSteps)/float64(b.N), "steps/2step")
	b.ReportMetric(float64(slowSteps)/float64(b.N), "steps/relay")
}

func BenchmarkE15Lattice(b *testing.B) {
	n := 8
	snap, shared := rrfd.AtomicSnapshot(3), rrfd.SharedMemory(3)
	for i := 0; i < b.N; i++ {
		tr, err := rrfd.CollectTrace(n, 8, rrfd.SnapshotChain(n, 3, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := snap.Check(tr); err != nil {
			b.Fatal(err)
		}
		if err := shared.Check(tr); err != nil {
			b.Fatal(err)
		}
	}
}
