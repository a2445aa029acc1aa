package msgnet

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

// settle waits for the goroutine count to come back to base: Run returns
// when the last body has handed in its result, a moment before that
// goroutine is gone.
func settle(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the run", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// caught runs fn and returns what it panicked with, nil if it did not.
func caught(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// panicAt panics on its at-th send as an injector, and on the at-th event of
// its kind (any kind if empty) as an observer.
type panicAt struct {
	kind      string
	calls, at int
}

func (p *panicAt) OnSend(int, core.PID, core.PID) FaultAction {
	if p.calls++; p.calls == p.at {
		panic("boom")
	}
	return deliverNow
}

func (p *panicAt) Observe(e obs.Event) {
	if p.kind != "" && e.Kind != p.kind {
		return
	}
	if p.calls++; p.calls == p.at {
		panic("boom")
	}
}

// TestPanicUnwindsEveryBody: a panic in the Chooser, the FaultInjector, the
// Observer or a Body reaches Run's caller with its original value, after
// every body has unwound — no goroutine stays parked, and a body's panic
// does not take the process down from a goroutine nobody can recover on.
func TestPanicUnwindsEveryBody(t *testing.T) {
	calls := 0
	cases := map[string]struct {
		cfg  Config
		emit core.RoundEmit
	}{
		"chooser": {cfg: Config{Chooser: func(step int, options []core.PID) int {
			if calls++; calls == 10 {
				panic("boom")
			}
			return 0
		}}},
		"injector": {cfg: Config{Faults: &panicAt{at: 7}}},
		"observer": {cfg: Config{Observer: &panicAt{at: 12}}},
		"observer at a restart": {cfg: Config{
			Crash: map[core.PID]int{0: 2}, Restart: map[core.PID]int{0: 1},
			Observer: &panicAt{kind: "msgnet.restart", at: 1},
		}},
		"body": {emit: func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
			if me == 2 && r == 2 {
				panic("boom")
			}
			return r
		}},
	}
	for name, c := range cases {
		base := runtime.NumGoroutine()
		if v := caught(func() { RunRounds(4, 1, 3, c.cfg, c.emit) }); v != "boom" {
			t.Fatalf("%s: Run panicked with %v, want boom", name, v)
		}
		settle(t, base, name)
	}
}

// TestParMapCapturesBodyPanic: runs fanned out over a pool, one of which
// has a panicking body, yield a *par.PanicError for that index and results
// for the rest — the panic surfaces on the goroutine that called Run.
func TestParMapCapturesBodyPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	steps, err := par.Map(2, 4, func(i int) int {
		out, err := Run(3, Config{Chooser: Seeded(int64(i))}, func(nd *Node) (core.Value, error) {
			if err := nd.Broadcast(i); err != nil {
				return nil, err
			}
			if i == 2 && nd.Me == 1 {
				panic(fmt.Sprint("body of run ", i))
			}
			_, err := nd.Recv()
			return nil, err
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

// render prints an Outcome in pid order, for pinning.
func render(out *Outcome, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err=%v steps=%d crashed=%s restarted=%s", err, out.Steps, out.Crashed, out.Restarted)
	for pid := core.PID(0); int(pid) < out.Crashed.Universe(); pid++ {
		if v, ok := out.Values[pid]; ok {
			fmt.Fprintf(&b, " p%d=%v", pid, v)
		}
		if e, ok := out.Errs[pid]; ok {
			fmt.Fprintf(&b, " p%d!%v", pid, e)
		}
	}
	return b.String()
}

// chatter broadcasts and then receives for ever: it ends only by an abort.
func chatter(nd *Node) (core.Value, error) {
	if err := nd.Broadcast("x"); err != nil {
		return nil, err
	}
	for {
		if _, err := nd.Recv(); err != nil {
			return nd.Incarnation(), err
		}
	}
}

// TestAbortPathsAreUnchanged pins every way a run aborts — the error and the
// whole Outcome, recorded at the parent commit, where a scheduler goroutine
// produced them — and checks that each leaves no goroutine behind. The last
// case aborts with two restarts pending, which are then spawned at once and
// unwound: the one step where several bodies start beside the baton holder.
func TestAbortPathsAreUnchanged(t *testing.T) {
	badAt := func(k int) core.Chooser {
		calls := 0
		return func(step int, options []core.PID) int {
			if calls++; calls == k {
				return len(options)
			}
			return 0
		}
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"deadlock", Config{},
			"err=msgnet: deadlock at step 18: processes [0 1 2] blocked on receive; no messages in flight steps=21 crashed={} restarted={} p0!msgnet: process crashed p1!msgnet: process crashed p2!msgnet: process crashed"},
		{"step limit", Config{MaxSteps: 7},
			"err=msgnet: step budget 7 exhausted with processes [0 2] still pending steps=11 crashed={} restarted={} p0!msgnet: process crashed p1!msgnet: process crashed p2!msgnet: process crashed"},
		{"bad process pick", Config{Chooser: badAt(1)},
			"err=msgnet: chooser returned 3 for 3 options steps=3 crashed={} restarted={} p0!msgnet: process crashed p1!msgnet: process crashed p2!msgnet: process crashed"},
		{"bad sender pick", Config{Chooser: badAt(5)},
			"err=msgnet: chooser returned 1 for 1 senders steps=6 crashed={} restarted={} p0!msgnet: process crashed p1!msgnet: process crashed p2!msgnet: process crashed"},
		{"two restarts pending", Config{MaxSteps: 9, Crash: map[core.PID]int{0: 1, 1: 2}, Restart: map[core.PID]int{0: 40, 1: 50}},
			"err=msgnet: step budget 9 exhausted with processes [2] still pending steps=48 crashed={0,1} restarted={0,1} p0!msgnet: process crashed p1!msgnet: process crashed p2!msgnet: process crashed"},
	}
	for _, c := range cases {
		base := runtime.NumGoroutine()
		got := render(Run(3, c.cfg, chatter))
		if got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
		settle(t, base, c.name)
	}
}

// TestOutcomeIndependentOfGOMAXPROCS: with bodies that compute for a varying
// while before their first operation — so that start-up arrivals, and who
// ends up holding the baton first, really differ from run to run — the same
// seed gives the same Outcome at 1, 2 and 4 processors, faults, crashes and
// a restart included.
func TestOutcomeIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(seed int64, round int) (*Outcome, error) {
		return Run(5, Config{
			Chooser: Seeded(seed),
			Faults:  &dropFirst{k: int(seed) % 4},
			Crash:   map[core.PID]int{1: 4, 3: 9},
			Restart: map[core.PID]int{1: 3},
		}, func(nd *Node) (core.Value, error) {
			spin := 0
			for i := 0; i < (int(nd.Me)*7+round*3+int(seed))%5*4000; i++ {
				spin += i
			}
			if err := nd.Broadcast(int(nd.Me)); err != nil {
				return nil, err
			}
			sum := spin - spin
			for {
				env, ok, err := nd.RecvTimeout(nd.Clock() + 20)
				if err != nil {
					return nil, err
				}
				if !ok {
					return sum*10 + nd.Incarnation(), nil
				}
				sum += env.Payload.(int)
			}
		})
	}
	for seed := int64(1); seed <= 20; seed++ {
		runtime.GOMAXPROCS(1)
		want, wantErr := run(seed, 0)
		for round, procs := range []int{1, 2, 4, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := run(seed, round)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(err, wantErr) {
				t.Fatalf("seed %d at GOMAXPROCS %d:\n got %s\nwant %s", seed, procs, render(got, err), render(want, wantErr))
			}
		}
	}
}
