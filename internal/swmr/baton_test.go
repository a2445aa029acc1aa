package swmr

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/par"
)

// warmBase runs n bodies that return at once, so that baton's pool holds
// the coroutines a run of n processes takes, and returns the goroutine
// count after it: the idle coroutines are in the base, and a run with at
// most n bodies live at once leaves it where it was.
func warmBase(n int) int {
	Run(n, Config{}, func(*Proc) (core.Value, error) { return nil, nil })
	return runtime.NumGoroutine()
}

// settle waits for the goroutine count to come back to base, taken by
// warmBase (a par.Map worker exits a moment after Map returns), and finds
// no body parked in an operation: idle coroutines left over by earlier
// tests would hide one from the count.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the run", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	if k := strings.Count(string(buf[:runtime.Stack(buf, true)]), "baton.(*Baton).Yield("); k > 0 {
		t.Fatalf("%s: %d bodies parked in an operation after the run", what, k)
	}
}

// caught runs fn and returns what it panicked with, nil if it did not.
func caught(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// TestPanicUnwindsEveryBody: a panic in the Chooser, in an Atomic operation
// or in a Body reaches Run's caller with its original value, after every
// body has unwound — no goroutine stays parked, and a body's panic does not
// take the process down from a goroutine nobody can recover on.
func TestPanicUnwindsEveryBody(t *testing.T) {
	calls := 0
	counter := func(p *Proc, panicAt int) (core.Value, error) {
		for {
			v, err := p.Atomic("c", func(state core.Value) (core.Value, core.Value) {
				c, _ := state.(int)
				if c+1 == panicAt {
					panic("boom")
				}
				return c + 1, c + 1
			})
			if err != nil || v.(int) > 30 {
				return v, err
			}
		}
	}
	cases := map[string]struct {
		chooser core.Chooser
		body    Body
	}{
		"chooser": {
			chooser: func(step int, runnable []core.PID) int {
				if calls++; calls == 10 {
					panic("boom")
				}
				return step % len(runnable)
			},
			body: func(p *Proc) (core.Value, error) { return counter(p, 0) },
		},
		"operation": {body: func(p *Proc) (core.Value, error) { return counter(p, 10) }},
		"body": {body: func(p *Proc) (core.Value, error) {
			if err := p.Write("r", 1); err != nil {
				return nil, err
			}
			if p.Me == 2 {
				panic("boom")
			}
			return counter(p, 0)
		}},
	}
	base := warmBase(4)
	for name, c := range cases {
		if v := caught(func() { Run(4, Config{Chooser: c.chooser}, c.body) }); v != "boom" {
			t.Fatalf("%s: Run panicked with %v, want boom", name, v)
		}
		settle(t, base, name)
	}
}

// TestParMapCapturesBodyPanic: runs fanned out over a pool, one of which
// has a panicking body, yield a *par.PanicError for that index and results
// for the rest — the panic surfaces on the goroutine that called Run.
func TestParMapCapturesBodyPanic(t *testing.T) {
	base := warmBase(2 * 3) // two workers, three bodies a run
	steps, err := par.Map(2, 4, func(i int) int {
		out, err := Run(3, Config{Chooser: Seeded(int64(i))}, func(p *Proc) (core.Value, error) {
			if err := p.Write("r", i); err != nil {
				return nil, err
			}
			if i == 2 && p.Me == 1 {
				panic(fmt.Sprint("body of run ", i))
			}
			vals := make([]core.Value, p.N)
			return vals, p.Collect("r", vals)
		})
		if err != nil {
			t.Errorf("run %d: %v", i, err)
		}
		return out.Steps
	})
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe.Index != 2 || pe.Value != "body of run 2" {
		t.Fatalf("err = %v, want the panic of run 2", err)
	}
	for i, s := range steps {
		if want := 12; i != 2 && s != want {
			t.Errorf("run %d: %d steps, want %d", i, s, want)
		}
	}
	settle(t, base, "par.Map")
}

// TestAbortPathsAreUnchanged pins the two ways a run aborts — the error and
// the whole Outcome, recorded at the parent commit, where a scheduler
// goroutine produced them — and checks that neither leaves a goroutine
// behind.
func TestAbortPathsAreUnchanged(t *testing.T) {
	calls := 0
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"step limit", Config{maxSteps: 7, Crash: map[core.PID]int{1: 1}},
			"err=swmr: step budget exhausted steps=10 crashed={1} values=map[] errs=map[0:swmr: process crashed 1:swmr: process crashed 2:swmr: process crashed]"},
		{"bad chooser", Config{Chooser: func(step int, runnable []core.PID) int {
			if calls++; calls == 5 {
				return -1
			}
			return step % len(runnable)
		}}, "err=swmr: chooser returned -1 for 3 runnable steps=7 crashed={} values=map[] errs=map[0:swmr: process crashed 1:swmr: process crashed 2:swmr: process crashed]"},
	}
	base := warmBase(3)
	for _, c := range cases {
		out, err := Run(3, c.cfg, func(p *Proc) (core.Value, error) {
			for k := 0; ; k++ {
				if err := p.Write("r", k); err != nil {
					return k, err
				}
			}
		})
		got := fmt.Sprintf("err=%v steps=%d crashed=%s values=%v errs=%v", err, out.Steps, out.Crashed, out.Values, out.Errs)
		if got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
		settle(t, base, c.name)
	}
}

// TestOutcomeIndependentOfGOMAXPROCS: with bodies that compute for a varying
// while before their first operation, and may be preempted there, the same
// seed gives the same Outcome, and mc.Explore the same schedule count, at 1,
// 2 and 4 processors.
func TestOutcomeIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	body := func(salt int) Body {
		return func(p *Proc) (core.Value, error) {
			spin := 0
			for i := 0; i < (int(p.Me)*7+salt)%5*4000; i++ {
				spin += i
			}
			if err := p.Write("v", int(p.Me)+spin-spin); err != nil {
				return nil, err
			}
			vals := make([]core.Value, p.N)
			return vals, p.Collect("v", vals)
		}
	}
	run := func(seed int64, salt int) (*Outcome, error) {
		return Run(4, Config{Chooser: Seeded(seed), Crash: map[core.PID]int{2: 3}}, body(salt+int(seed)))
	}
	schedules := func(salt int) int {
		return explore(t, func(ch core.Chooser) error {
			_, err := Run(2, Config{Chooser: ch}, body(salt))
			return err
		}).Schedules
	}
	runtime.GOMAXPROCS(1)
	wantCount := schedules(0)
	for seed := int64(1); seed <= 20; seed++ {
		runtime.GOMAXPROCS(1)
		want, wantErr := run(seed, 0)
		for salt, procs := range []int{1, 2, 4, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := run(seed, salt)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(err, wantErr) {
				t.Fatalf("seed %d at GOMAXPROCS %d: %+v, %v; want %+v, %v", seed, procs, got, err, want, wantErr)
			}
			if seed == 1 {
				if got := schedules(salt); got != wantCount {
					t.Fatalf("GOMAXPROCS %d: mc.Explore ran %d schedules, want %d", procs, got, wantCount)
				}
			}
		}
	}
}
