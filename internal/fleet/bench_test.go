package fleet

import (
	"fmt"
	"testing"
)

// BenchmarkEngineFleet is the headline throughput benchmark: a full
// fleet run (build, schedule, all rounds, gather) priced in
// instance-rounds per second — one instance-round being one instance
// advancing one protocol round across all its processes. The acceptance
// target is ≥ 1M instrounds/sec on 8 cores; the single-shard row shows
// the same engine serial, so the per-core efficiency is visible too.
// Tracked in BENCH_core.json under the benchstatjson compare gate.
func BenchmarkEngineFleet(b *testing.B) {
	base := Config{
		Instances:   4096,
		Procs:       4,
		F:           1,
		BaseRounds:  2,
		RoundSpread: 2,
		Seed:        7,
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := base
			cfg.Shards = shards // Workers defaults to GOMAXPROCS
			var total int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				total += res.InstanceRounds()
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instrounds/sec")
		})
	}
}

// BenchmarkFleetRoundsOnly isolates the round loop from fleet
// construction: one fleet built outside the timer, rounds re-run on a
// rewound value slab each iteration. This is the marginal cost of an
// instance-round once a fleet is warm.
func BenchmarkFleetRoundsOnly(b *testing.B) {
	cfg := Config{
		Instances:   4096,
		Procs:       4,
		F:           1,
		BaseRounds:  2,
		RoundSpread: 2,
		Seed:        7,
		Shards:      4,
	}
	f, err := newFleet(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f.scatterInputs()
	warm, err := f.run()
	if err != nil {
		b.Fatal(err)
	}
	perRun := warm.InstanceRounds()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.scatterInputs()
		if _, err := f.run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(perRun*int64(b.N))/b.Elapsed().Seconds(), "instrounds/sec")
}
