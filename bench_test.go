package rrfd_test

// One testing.B benchmark per experiment table (E01–E15, DESIGN.md §5).
// Each benchmark times the experiment's central workload and reports the
// domain quantity the paper predicts as a custom metric, so
// `go test -bench=. -benchmem` regenerates the shape of every result.

import (
	"testing"

	"repro/internal/adoptcommit"
	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/hoalg"
	"repro/internal/msgnet"
	"repro/internal/semisync"
	"repro/internal/simulate"
	"repro/internal/snapshot"
	"repro/internal/swmr"
)

func identityInputs(n int) []core.Value {
	inputs := make([]core.Value, n)
	for i := range inputs {
		inputs[i] = i
	}
	return inputs
}

func BenchmarkE01SyncOmission(b *testing.B) {
	n, f := 8, 3
	pred := hoalg.SendOmission(f).Compile()
	for i := 0; i < b.N; i++ {
		tr, err := core.CollectTrace(n, 10, adversary.Omission(n, f, 0.8, int64(i)))
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
	crash, omission := hoalg.SyncCrash(f).Compile(), hoalg.SendOmission(f).Compile()
	for i := 0; i < b.N; i++ {
		tr, err := core.CollectTrace(n, 12, adversary.Crash(n, f, int64(i)))
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
	pred := hoalg.PerRound(f).Compile()
	steps := 0
	for i := 0; i < b.N; i++ {
		out, err := msgnet.RunRounds(n, f, rounds, msgnet.Config{Chooser: core.Seeded(int64(i))}, nil)
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
	pred := hoalg.SharedMemory(f).Compile()
	for i := 0; i < b.N; i++ {
		out, err := msgnet.RunRounds(n, f, 6, msgnet.Config{Chooser: core.Seeded(int64(i))}, nil)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := simulate.TwoRoundsToSharedMemory(out.Trace)
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
	pred := hoalg.AtomicSnapshot(f).Compile()
	for i := 0; i < b.N; i++ {
		out, err := snapshot.RunRounds(n, f, rounds, swmr.Config{Chooser: swmr.Seeded(int64(i))}, nil)
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
		res, err := core.Run(n, inputs, agreement.RotatingCoordinator(),
			adversary.SpareNeverSuspected(n, core.PID(i%n), int64(i)), core.WithoutTrace())
		if err != nil {
			b.Fatal(err)
		}
		if err := agreement.Validate(res, inputs, 1, n); err != nil {
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
		res, err := core.Run(n, inputs, agreement.OneRoundKSet(),
			adversary.KSetUncertainty(n, k, int64(i)), core.WithoutTrace())
		if err != nil {
			b.Fatal(err)
		}
		if err := agreement.Validate(res, inputs, k, 1); err != nil {
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
		emit := func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
			return int(me)
		}
		cfg := swmr.Config{
			Chooser: swmr.Seeded(int64(i)),
			Crash:   map[core.PID]int{core.PID(n - 1): i % 30},
		}
		out, err := snapshot.RunRounds(n, k-1, 1, cfg, emit)
		if err != nil {
			b.Fatal(err)
		}
		distinct := make(map[core.Value]bool)
		for _, views := range out.Views {
			if len(views) < 1 {
				continue
			}
			best := core.PID(-1)
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
	pred := hoalg.KSetEq3(k).Compile()
	for i := 0; i < b.N; i++ {
		tr, err := exp.DetectorFromKSet(n, k, 3, swmr.Config{Chooser: swmr.Seeded(int64(i))})
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
	pred := hoalg.SendOmission(f).Compile()
	for i := 0; i < b.N; i++ {
		base, err := core.CollectTrace(n, f/k+2, adversary.SnapshotChain(n, k, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		sim, err := simulate.OmissionPrefix(base, f, k)
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
		out, err := swmr.Run(n, swmr.Config{Chooser: swmr.Seeded(int64(i))},
			func(p *swmr.Proc) (core.Value, error) {
				o, err := adoptcommit.Run(p, "b", int(p.Me)%2)
				if err != nil {
					return nil, err
				}
				return o, nil
			})
		if err != nil {
			b.Fatal(err)
		}
		var committed core.Value
		for _, v := range out.Values {
			o := v.(adoptcommit.Outcome)
			if o.Grade == adoptcommit.Commit {
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
	pred := hoalg.SyncCrash(f).Compile()
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := simulate.CrashSync(n, f, k, rounds,
			swmr.Config{Chooser: swmr.Seeded(int64(i))},
			agreement.FloodMin(rounds), inputs)
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
		res, err := core.Run(n, inputs, agreement.FloodMin(f/k+1), adversary.ChainCrash(n, f, k), core.WithoutTrace())
		if err != nil {
			b.Fatal(err)
		}
		full += res.DistinctOutputs()
		res, err = core.Run(n, inputs, agreement.FloodMin(f/k), adversary.ChainCrash(n, f, k), core.WithoutTrace())
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
		fast, err := semisync.RunTwoStep(n, 1, semisync.Config{Chooser: core.Seeded(int64(i))}, inputs)
		if err != nil {
			b.Fatal(err)
		}
		fastSteps += fast.Outcome.MaxDecisionSteps()
		slow, err := semisync.Run(n, semisync.Config{Chooser: core.RoundRobin()},
			semisync.RelayFactory(), inputs)
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
	snap, shared := hoalg.AtomicSnapshot(3).Compile(), hoalg.SharedMemory(3).Compile()
	for i := 0; i < b.N; i++ {
		tr, err := core.CollectTrace(n, 8, adversary.SnapshotChain(n, 3, int64(i)))
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
