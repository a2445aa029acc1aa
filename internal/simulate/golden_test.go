package simulate

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/core"
	"repro/internal/swmr"
)

// The §4 simulation runners' fixed-seed outputs — decisions, decision
// rounds and the induced simulated trace, fault-free and with a crash —
// recorded before their trace assembly moved to core.AssembleRounds. The
// crash rows pin the marking: every process that misses a simulated
// round is Crashed in the simulated trace.

func TestGoldenRunTwoForOne(t *testing.T) {
	n, f := 7, 3
	for _, tc := range []struct {
		name string
		base core.Oracle
		want string
	}{
		{"fault-free", adversary.AsyncBudget(n, f, false, 7),
			"base=6 outputs=map[0:done@3 1:done@3 2:done@3 3:done@3 4:done@3 5:done@3 6:done@3] at=map[0:3 1:3 2:3 3:3 4:3 5:3 6:3] crashed={} trace=3657de7347210ab5fc8e2be4b01632da6d87c5f6e06b686b7231af4d84d2b0be"},
		{"crash", adversary.Crash(n, f, 7),
			"base=6 outputs=map[1:done@3 2:done@3 3:done@3 5:done@3 6:done@3] at=map[1:3 2:3 3:3 5:3 6:3] crashed={0,4} trace=39135b1d9a0bd00332a2b266eb998283cbe5fe74bac98574d2c193dfebd96350"},
	} {
		var probes []*probe
		res, err := RunTwoForOne(n, make([]core.Value, n), probeFactory(3, &probes), tc.base, ModeUnion, f, 10)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("base=%d outputs=%v at=%v crashed=%s trace=%x", res.BaseRounds,
			res.Result.Outputs, res.Result.DecidedAt, res.Result.Crashed,
			sha256.Sum256([]byte(res.Result.Trace.String())))
		if got != tc.want {
			t.Errorf("%s:\ngot  %s\nwant %s\n%s", tc.name, got, tc.want, res.Result.Trace)
		}
	}
}

func TestGoldenCrashSync(t *testing.T) {
	n, f, k := 6, 4, 2
	for _, tc := range []struct {
		name string
		cfg  swmr.Config
		want string
	}{
		{"fault-free", swmr.Config{Chooser: swmr.Seeded(7)},
			"steps=1530 outputs=map[0:0 1:0 2:0 3:0 4:0 5:0] at=map[0:2 1:2 2:2 3:2 4:2 5:2] adopted=map[] crashed={} real={} trace=533bdf8bd385600706106fdadcdc5f597ccf065b2d124ac87cd2d7860ddf8654"},
		{"crash", swmr.Config{Chooser: swmr.Seeded(7), Crash: map[core.PID]int{5: 20, 4: 45}},
			"steps=1183 outputs=map[1:1 2:1] at=map[1:2 2:2] adopted=map[0:1 3:1] crashed={0,3,4,5} real={4,5} trace=7b06908858a8fe83deddf159163cc84bcef6de6c2489945160d8f83bac165109"},
	} {
		res, err := CrashSync(n, f, k, f/k, tc.cfg, agreement.FloodMin(f/k), identityInputs(n))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := fmt.Sprintf("steps=%d outputs=%v at=%v adopted=%v crashed=%s real=%s trace=%x", res.Steps,
			res.Result.Outputs, res.Result.DecidedAt, res.Adopted, res.Result.Crashed, res.RealCrashes,
			sha256.Sum256([]byte(res.Result.Trace.String())))
		if got != tc.want {
			t.Errorf("%s:\ngot  %s\nwant %s\n%s", tc.name, got, tc.want, res.Result.Trace)
		}
	}
}
