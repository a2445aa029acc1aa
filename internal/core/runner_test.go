package core

import (
	"errors"
	"reflect"
	"testing"
)

// mixedOracle rotates one suspicion per process each round, crashes victim
// at round crashAt (never when crashAt is 0) and suspects everybody of
// process 0 at round badAt (never when badAt is 0), which the engine
// rejects.
func mixedOracle(n, crashAt int, victim PID, badAt int) Oracle {
	return OracleFunc(func(r int, active Set) RoundPlan {
		crashes := NewSet(n)
		if r == crashAt {
			crashes.Add(victim)
		}
		dead := FullSet(n).Diff(active).Union(crashes)
		sus := make([]Set, n)
		for i := range sus {
			sus[i] = dead.Clone()
			if q := PID((r + i) % n); q != PID(i) {
				sus[i].Add(q)
			}
		}
		if r == badAt {
			sus[0] = FullSet(n)
		}
		return RoundPlan{Suspects: sus, Crashes: crashes}
	})
}

// TestRunnerReuseMatchesFreshRuns: one Runner runs a mixed sequence — n
// changing and coming back, crashes landing in rounds whose rows an
// earlier run filled, the trace off and on, an invalid plan and the round
// limit — and every Result and Trace it returns deep-equals a fresh Run's.
func TestRunnerReuseMatchesFreshRuns(t *testing.T) {
	type step struct {
		name                  string
		n, target, maxRounds  int
		crashAt               int
		victim                PID
		badAt                 int
		untraced              bool
		wantErr, wantMaxRound bool
	}
	steps := []step{
		{name: "traced, p3 crashes in round 2", n: 4, target: 4, maxRounds: 10, crashAt: 2, victim: 3},
		{name: "untraced", n: 4, target: 3, maxRounds: 10, untraced: true},
		{name: "smaller n hits the round limit", n: 3, target: 9, maxRounds: 3, crashAt: 1, victim: 0, wantErr: true, wantMaxRound: true},
		{name: "invalid plan in round 2", n: 4, target: 5, maxRounds: 10, badAt: 2, wantErr: true},
		{name: "shorter traced run", n: 4, target: 2, maxRounds: 10, crashAt: 2, victim: 1},
		{name: "two words a set", n: 70, target: 3, maxRounds: 10, crashAt: 1, victim: 65},
		{name: "p2 inactive where it had rows", n: 4, target: 5, maxRounds: 10, crashAt: 1, victim: 2},
		{name: "round limit, traced", n: 4, target: 9, maxRounds: 4, wantErr: true, wantMaxRound: true},
		{name: "untraced after traced", n: 4, target: 3, maxRounds: 10, crashAt: 3, victim: 0, untraced: true},
	}
	var runner Runner
	for _, s := range steps {
		inputs := make([]Value, s.n)
		for i := range inputs {
			inputs[i] = 100 + i
		}
		opts := []Option{WithMaxRounds(s.maxRounds)}
		if s.untraced {
			opts = append(opts, WithoutTrace())
		}
		run := func(r *Runner) (*Result, error) {
			return r.Run(s.n, inputs, newEchoFactory(s.target), mixedOracle(s.n, s.crashAt, s.victim, s.badAt), opts...)
		}
		want, wantErr := run(new(Runner))
		got, err := run(&runner)
		if (err != nil) != s.wantErr || errors.Is(err, ErrMaxRounds) != s.wantMaxRound {
			t.Fatalf("%s: err = %v", s.name, err)
		}
		if !reflect.DeepEqual(err, wantErr) {
			t.Fatalf("%s: err = %v, a fresh run's %v", s.name, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the reused Runner's result differs from a fresh run's\n got %+v\ntrace %v\nwant %+v\ntrace %v",
				s.name, got, traceText(got), want, traceText(want))
		}
		if got != nil && (got.Trace == nil) != s.untraced {
			t.Fatalf("%s: trace %v, untraced %v", s.name, got.Trace, s.untraced)
		}
	}
}

func traceText(res *Result) string {
	if res == nil || res.Trace == nil {
		return "none"
	}
	return res.Trace.String()
}

// TestWarmRunnerAllocatesNothing pins a reused Runner's run to zero
// objects of the engine's own, traced or not, under an allocation-free
// algorithm and a replayed trace: the Result, its maps, the trace and its
// record rows are the previous run's.
func TestWarmRunnerAllocatesNothing(t *testing.T) {
	const n, rounds = 8, 6
	base, err := CollectTrace(n, rounds, mixedOracle(n, 3, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	oracle := TraceOracle(base)
	nop := func(PID, int, Value) Algorithm { return nopAlgorithm{} }
	inputs := make([]Value, n)
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"traced", []Option{WithMaxRounds(rounds)}},
		{"untraced", []Option{WithMaxRounds(rounds), WithoutTrace()}},
	} {
		var runner Runner
		var res *Result
		run := func() {
			if res, err = runner.Run(n, inputs, nop, oracle, c.opts...); !errors.Is(err, ErrMaxRounds) {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: a warm Runner allocates %.1f objects a run, want 0", c.name, allocs)
		}
		if c.name == "traced" && !reflect.DeepEqual(res.Trace, base) {
			t.Fatalf("the replayed trace differs from the recorded one:\n%s\nwant\n%s", res.Trace, base)
		}
	}
}
