package swmr

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// readLoop is a collect as n Reads: the body woken after every register,
// the reference the one-request Collect must match step for step.
func readLoop(p *Proc, name string, into []core.Value) error {
	for i := range into[:p.N] {
		v, err := p.Read(core.PID(i), name)
		if err != nil {
			return err
		}
		into[i] = v
	}
	return nil
}

// collector is a body that writes, collects and reads back three times,
// collecting with collect; a failed collect's error carries the buffer.
func collector(collect func(*Proc, string, []core.Value) error) Body {
	return func(p *Proc) (core.Value, error) {
		into := make([]core.Value, p.N)
		var seen []string
		for k := 0; k < 3; k++ {
			if err := p.Write("v", int(p.Me)*10+k); err != nil {
				return nil, err
			}
			if err := collect(p, "v", into); err != nil {
				return nil, fmt.Errorf("after %v: %w", into, err)
			}
			seen = append(seen, fmt.Sprint(into))
			if _, err := p.Read((p.Me+1)%core.PID(p.N), "v"); err != nil {
				return nil, err
			}
		}
		return strings.Join(seen, " "), nil
	}
}

// logged records every option list the chooser is shown, with its step.
func logged(ch core.Chooser, log *strings.Builder) core.Chooser {
	return func(step int, runnable []core.PID) int {
		fmt.Fprintln(log, step, runnable)
		return ch(step, runnable)
	}
}

// TestCollectMatchesReadLoop: Collect, one request the steps apply read by
// read, and the per-read loop give the same Outcome and show the chooser
// the same option lists the same number of times — fault-free, with a
// crash that falls inside a collect, with the step budget reached inside
// one, and with an out-of-range chooser answer.
func TestCollectMatchesReadLoop(t *testing.T) {
	const n = 4
	midCollect := 0
	for seed := int64(1); seed <= 40; seed++ {
		badAt := 5 + int(seed)%30
		cases := map[string]func() Config{
			"fault-free": func() Config { return Config{Chooser: Seeded(seed)} },
			// A process's operations are a write, n reads and a read, three
			// times over: a crash after 2–4 of them fails the first collect
			// after one to three reads.
			"crash": func() Config {
				return Config{Chooser: Seeded(seed), Crash: map[core.PID]int{1: 2 + int(seed)%5, 2: 8}}
			},
			"budget": func() Config { return Config{Chooser: Seeded(seed), maxSteps: 10 + int(seed)%25} },
			"chooser": func() Config {
				inner, calls := Seeded(seed), 0
				return Config{Chooser: func(step int, runnable []core.PID) int {
					if calls++; calls == badAt {
						return len(runnable)
					}
					return inner(step, runnable)
				}}
			},
		}
		for name, cfg := range cases {
			run := func(collect func(*Proc, string, []core.Value) error) string {
				var log strings.Builder
				c := cfg()
				c.Chooser = logged(c.Chooser, &log)
				out, err := Run(n, c, collector(collect))
				return fmt.Sprintf("err=%v steps=%d crashed=%s values=%v errs=%v\n%s", err, out.Steps, out.Crashed, out.Values, out.Errs, log.String())
			}
			want := run(readLoop)
			if got := run((*Proc).Collect); got != want {
				t.Fatalf("seed %d, %s: Collect differs from the read loop\n got %s\nwant %s", seed, name, got, want)
			}
			// A failed collect whose buffer holds a value was failed after
			// a read (of its own, or of an earlier collect's).
			if name != "fault-free" && strings.Contains(want, "after [") && !strings.Contains(want, "after [<nil> <nil> <nil> <nil>]") {
				midCollect++
			}
		}
	}
	if midCollect == 0 {
		t.Fatal("no run failed a collect after its first read: the cases must cover it")
	}
}

// wakes reads the hand-over count of p's finished run: baton's unexported
// counter.
func wakes(p *Proc) int {
	return int(reflect.ValueOf(p.sched.baton).Elem().FieldByName("wakes").Int())
}

// TestCollectWakesItsBodyOnce: a body is woken at most once per operation
// it asks for, a collect of n registers included, whatever the schedule;
// the per-read loop is woken about once a register.
func TestCollectWakesItsBodyOnce(t *testing.T) {
	const n = 5
	for _, c := range []struct {
		name    string
		collect func(*Proc, string, []core.Value) error
	}{{"Collect", (*Proc).Collect}, {"read loop", readLoop}} {
		for seed := int64(1); seed <= 10; seed++ {
			var p0 *Proc
			out, err := Run(n, Config{Chooser: Seeded(seed)}, func(p *Proc) (core.Value, error) {
				if p.Me == 0 {
					p0 = p
				}
				return collector(c.collect)(p)
			})
			if err != nil || len(out.Errs) > 0 {
				t.Fatalf("%s, seed %d: %v %v", c.name, seed, err, out.Errs)
			}
			ops := n * 3 * 3 // a write, a collect and a read, three times
			if w := wakes(p0); c.name == "Collect" && w > ops {
				t.Fatalf("seed %d: %d hand-overs woke a body over %d operations asked for: a collect wakes its body per read", seed, w, ops)
			} else if c.name == "read loop" && w <= ops {
				t.Fatalf("seed %d: the read loop took %d hand-overs, no more than %d operations: the pin cannot tell", seed, w, ops)
			}
		}
	}
}
