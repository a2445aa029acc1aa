package fleet

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/hist"
)

func testConfig() Config {
	return Config{
		Instances:   256,
		Procs:       5,
		F:           2,
		BaseRounds:  2,
		RoundSpread: 2,
		Seed:        42,
	}
}

// TestFleetDeterministicAcrossShardsAndWorkers is the acceptance
// property: a fixed seed yields identical results at every
// shard × worker combination, and the result passes the protocol audit.
func TestFleetDeterministicAcrossShardsAndWorkers(t *testing.T) {
	cfg := testConfig()
	var want *Result
	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{1, 4, 8} {
			c := cfg
			c.Shards, c.Workers = shards, workers
			res, err := Run(c)
			if err != nil {
				t.Fatalf("S=%d W=%d: %v", shards, workers, err)
			}
			if err := Audit(c, res); err != nil {
				t.Fatalf("S=%d W=%d audit: %v", shards, workers, err)
			}
			if want == nil {
				want = res
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("S=%d W=%d: result diverges from S=1 W=1", shards, workers)
			}
		}
	}
}

// TestFleetProtocolNonTrivial guards against the protocol degenerating:
// with F ≥ 1 and suspicion coins in play, some instances must actually
// disagree (within the k-set bound) — otherwise the suspicion machinery
// is dead code and the determinism tests prove nothing interesting.
func TestFleetProtocolNonTrivial(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.Procs
	split := 0
	for i := 0; i < cfg.Instances; i++ {
		distinct := map[int64]bool{}
		for p := 0; p < n; p++ {
			distinct[res.Values[i*n+p]] = true
		}
		if len(distinct) > 1 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("no instance split its decision: suspicions never bit")
	}
	if split == cfg.Instances {
		t.Fatal("every instance split: agreement never happens")
	}
}

// TestFleetAuditCatchesCorruption: the audit must reject a result whose
// values violate validity or the k-set bound, naming the lowest offender
// around the task verdict's sentence.
func TestFleetAuditCatchesCorruption(t *testing.T) {
	cfg := testConfig()
	n := cfg.Procs
	for _, tc := range []struct {
		name    string
		corrupt func(res *Result)
		want    string
	}{
		{"not an input", func(res *Result) { res.Values[3]-- },
			"fleet: instance 0 process 3 decided 2138247551862347290, not an input"},
		{"F+2 distinct", func(res *Result) {
			for p := 0; p < n; p++ {
				res.Values[7*n+p] = Input(cfg, 7, p)
			}
		}, "fleet: instance 7: 5 distinct decisions [2463003259222485249 -5767424501385091358 5205173353877084396 -5739087872025977654 1215805553469872868] exceed k=3"},
		{"above own input", func(res *Result) { res.Values[7*n] = Input(cfg, 7, 2) },
			"fleet: instance 7 process 0 decided 5205173353877084396 above own input 2463003259222485249"},
	} {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(res)
		if err := Audit(cfg, res); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Audit = %v, want %s", tc.name, err, tc.want)
		}
	}
}

// TestFleetSlowSets: B(i) has exactly F members, and the SetBank row and
// the flat hot-loop list agree.
func TestFleetSlowSets(t *testing.T) {
	cfg := testConfig()
	f, err := newFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Instances; i++ {
		s := f.slow.Row(i)
		if s.Count() != cfg.F {
			t.Fatalf("instance %d: |B| = %d, want %d", i, s.Count(), cfg.F)
		}
		for k := 0; k < cfg.F; k++ {
			if p := f.slowList[i*cfg.F+k]; !s.Has(core.PID(p)) {
				t.Fatalf("instance %d: slowList member %d missing from bank row", i, p)
			}
		}
	}
}

// TestFleetActivePrefix: cnt is non-increasing and the slot order puts
// longer-running instances first, so the per-round active set is always
// a prefix.
func TestFleetActivePrefix(t *testing.T) {
	cfg := testConfig()
	f, err := newFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < len(f.cnt); r++ {
		if f.cnt[r] > f.cnt[r-1] && r > 1 {
			t.Fatalf("cnt grows at round %d", r)
		}
	}
	for a := 1; a < len(f.ord); a++ {
		if f.rds[f.ord[a]] > f.rds[f.ord[a-1]] {
			t.Fatalf("slot order not R-descending at slot %d", a)
		}
	}
	for r := 1; r <= f.maxR; r++ {
		for a := 0; a < int(f.cnt[r]); a++ {
			if int(f.rds[f.ord[a]]) < r {
				t.Fatalf("slot %d inactive at round %d but inside the prefix", a, r)
			}
		}
	}
}

// TestFleetHistObservability: the per-shard occupancy and batch-size
// histograms fill when a registry is wired in.
func TestFleetHistObservability(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	cfg.hist = hist.NewRegistry()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	recs := cfg.hist.Get("fleet_batch_recs").Count()
	occ := cfg.hist.Get("fleet_shard_occupancy").Count()
	if recs == 0 || occ == 0 {
		t.Fatalf("histograms empty: batch_recs=%d occupancy=%d", recs, occ)
	}
	if recs != occ {
		t.Fatalf("one observation each per shard-round: batch_recs=%d occupancy=%d", recs, occ)
	}
}

// TestFleetConfigValidation: bad shapes are rejected up front.
func TestFleetConfigValidation(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Instances = 0 },
		func(c *Config) { c.Procs = 1 },
		func(c *Config) { c.Procs = 65 },
		func(c *Config) { c.F = -1 },
		func(c *Config) { c.F = c.Procs },
		func(c *Config) { c.BaseRounds = 0 },
		func(c *Config) { c.RoundSpread = -1 },
	} {
		c := testConfig()
		mutate(&c)
		if _, err := Run(c); err == nil {
			t.Fatalf("invalid config accepted: %+v", c)
		}
	}
}

// TestFleetShardsExceedProcs: more shards than processes leaves some
// shards owning nothing — the fleet must still run and stay canonical.
func TestFleetShardsExceedProcs(t *testing.T) {
	cfg := testConfig()
	cfg.Procs, cfg.F = 3, 1
	base := cfg
	base.Shards = 1
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	wide := cfg
	wide.Shards, wide.Workers = 8, 4
	got, err := Run(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("empty-shard fleet diverges")
	}
}

// TestInputStable pins the hashed inputs: deterministic, and spread out
// enough that instances are not all proposing the same value.
func TestInputStable(t *testing.T) {
	cfg := testConfig()
	seen := map[int64]bool{}
	for i := 0; i < 32; i++ {
		for p := 0; p < cfg.Procs; p++ {
			if Input(cfg, i, p) != Input(cfg, i, p) {
				t.Fatal("Input not deterministic")
			}
			seen[Input(cfg, i, p)] = true
		}
	}
	if len(seen) < 32 {
		t.Fatalf("inputs collapse: %d distinct over %d draws", len(seen), 32*cfg.Procs)
	}
}
