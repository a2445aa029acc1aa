package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"testing"
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
// shard × worker combination, and the result passes the protocol audit —
// at the test shape and at one wider than a 64-bit word.
func TestFleetDeterministicAcrossShardsAndWorkers(t *testing.T) {
	wide := testConfig()
	wide.Instances, wide.Procs, wide.F = 64, 70, 20
	for _, cfg := range []Config{testConfig(), wide} {
		var want *Result
		for _, shards := range []int{1, 4, 8} {
			for _, workers := range []int{1, 4, 8} {
				c := cfg
				c.Shards, c.Workers = shards, workers
				res, err := Run(c)
				if err != nil {
					t.Fatalf("n=%d S=%d W=%d: %v", c.Procs, shards, workers, err)
				}
				if err := Audit(c, res); err != nil {
					t.Fatalf("n=%d S=%d W=%d audit: %v", c.Procs, shards, workers, err)
				}
				if want == nil {
					want = res
					continue
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("n=%d S=%d W=%d: result diverges from S=1 W=1", c.Procs, shards, workers)
				}
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

// TestFleetSlowSets: B(i) has exactly F distinct members.
func TestFleetSlowSets(t *testing.T) {
	cfg := testConfig()
	f, err := newFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Instances; i++ {
		seen := map[int32]bool{}
		for _, p := range f.slowList[i*cfg.F : (i+1)*cfg.F] {
			if p < 0 || int(p) >= cfg.Procs || seen[p] {
				t.Fatalf("instance %d: slow list %v is not F distinct pids", i, f.slowList[i*cfg.F:(i+1)*cfg.F])
			}
			seen[p] = true
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

// TestFleetConfigValidation: bad shapes are rejected up front.
func TestFleetConfigValidation(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Instances = 0 },
		func(c *Config) { c.Procs = 1 },
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

// TestFleetResultsPinned pins Run's decisions and schedule by hash on
// four shapes, so a rewrite of the engine's storage cannot move a value.
func TestFleetResultsPinned(t *testing.T) {
	ladder := Config{Instances: 4096, Procs: 4, F: 1, BaseRounds: 2, RoundSpread: 2, Seed: 7}
	wide := Config{Instances: 300, Procs: 7, F: 3, BaseRounds: 3, RoundSpread: 4, Seed: 11, Shards: 3}
	for _, tc := range []struct {
		name   string
		cfg    Config
		values string
		rounds string
	}{
		{"testConfig", testConfig(),
			"aae364ddf50cdd68e41a0b995e3ab1fd85968f262248e3fd02809793202d7ed0",
			"d0742ca88353a74bfbc65e98eb71dc932c440378287331c21eac8e358074282e"},
		{"ladder/s1", ladder,
			"25bcc5ceafeff207a40bc092bd3d2d713c5c2b27554b5c11c514deb152db857a",
			"fdb58cee0ca1fd49af16ec7f73e9f63829cf56d14d749e5b4e6a7c3019c35a3a"},
		{"ladder/s2", func() Config { c := ladder; c.Shards = 2; return c }(),
			"25bcc5ceafeff207a40bc092bd3d2d713c5c2b27554b5c11c514deb152db857a",
			"fdb58cee0ca1fd49af16ec7f73e9f63829cf56d14d749e5b4e6a7c3019c35a3a"},
		{"300x7/F3/s3", wide,
			"a941f172256148541852d6ade5d2ce8b69a9c7b8a10dcfde32c4be2778b12947",
			"33f2cf5aadef2e76bf33014ca5d44071ce5fe2aa34de5a270ad22ea3a806875b"},
	} {
		res, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := sha256.New()
		for _, v := range res.Values {
			binary.Write(h, binary.LittleEndian, v)
		}
		values := hex.EncodeToString(h.Sum(nil))
		h.Reset()
		binary.Write(h, binary.LittleEndian, res.Rounds)
		rounds := hex.EncodeToString(h.Sum(nil))
		if values != tc.values || rounds != tc.rounds {
			t.Errorf("%s: values %s rounds %s, want %s %s", tc.name, values, rounds, tc.values, tc.rounds)
		}
	}
}
