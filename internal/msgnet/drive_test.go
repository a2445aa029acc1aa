package msgnet

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// hidden keeps Drive from recognising the node under it, so the drive is
// taken by the loop: the reference the baton holder's version must match.
func hidden(nd *Node) Substrate { return struct{ Substrate }{nd} }

func native(nd *Node) Substrate { return nd }

var drivers = map[string]func(*Node) Substrate{"holder": native, "loop": hidden}

// relay does in one drive what a body would do in two loops: sends payloads
// round the peers, then receives — re-arming a deadline from the clock of
// the receive before — and sums what arrives until a deadline passes.
// failAt, when positive, makes the failAt-th call misbehave.
type relay struct {
	sub        Substrate
	sends      int
	calls, sum int
	failAt     int
	fail       func() (Op, bool)
}

func (r *relay) Handle(last Result) (Op, bool) {
	if r.calls++; r.calls == r.failAt {
		return r.fail()
	}
	if r.calls < r.sends {
		return Op{Send: true, To: core.PID(r.calls % r.sub.Size()), Payload: r.calls}, true
	}
	if r.calls > r.sends { // the result of a receive
		if !last.Got {
			return Op{}, false
		}
		r.sum += last.Env.Payload.(int)
	}
	return Op{Deadline: r.sub.Clock() + 20}, true
}

func (r *relay) run() (Result, error) {
	return Drive(r.sub, Op{Send: true, To: 0, Payload: 0}, r)
}

// TestDriversAgree: the same handler driven by the baton holders and by the
// loop produces the same event stream and the same Outcome, byte for byte —
// with drops, a crash that fails an operation mid-drive, and a restart that
// is spawned while every other process is parked mid-drive.
func TestDriversAgree(t *testing.T) {
	run := func(seed int64, under func(*Node) Substrate) string {
		var buf bytes.Buffer
		out, err := Run(5, Config{
			Chooser:  Seeded(seed),
			Faults:   &dropFirst{k: int(seed) % 4},
			Crash:    map[core.PID]int{1: 4, 3: 9},
			Restart:  map[core.PID]int{1: 3},
			Observer: obs.NewEventLog(&buf),
		}, func(nd *Node) (core.Value, error) {
			r := &relay{sub: under(nd), sends: 12}
			_, err := r.run()
			return r.sum*10 + nd.Incarnation, err
		})
		return render(out, err) + "\n" + buf.String()
	}
	for seed := int64(1); seed <= 20; seed++ {
		want := run(seed, hidden)
		if !strings.Contains(want, `"kind":"msgnet.restart"`) || !strings.Contains(want, "p3!msgnet: process crashed") {
			t.Fatalf("seed %d: the run has no restart or no crash:\n%s", seed, want)
		}
		if got := run(seed, native); got != want {
			t.Fatalf("seed %d: the holders' drive differs from the loop's\n got %s\nwant %s", seed, got, want)
		}
	}
}

// TestHandlerAsksForInvalidSend: a send outside [0, n) asked for mid-drive
// ends the drive with Node.Send's error on the body — not with an index out
// of range on whichever goroutine holds the baton — after exactly the
// operations before it.
func TestHandlerAsksForInvalidSend(t *testing.T) {
	for name, under := range drivers {
		for _, to := range []core.PID{-1, 3} {
			calls := make([]int, 3)
			out, err := Run(3, Config{}, func(nd *Node) (core.Value, error) {
				r := &relay{sub: under(nd), sends: 6, failAt: 4, fail: func() (Op, bool) { return Op{Send: true, To: to}, true }}
				_, err := r.run()
				calls[nd.Me] = r.calls
				return nil, err
			})
			if err != nil || out.Steps != 12 {
				t.Fatalf("%s, to %d: err %v after %d steps, want 3 × 4 sends", name, to, err, out.Steps)
			}
			for pid, e := range out.Errs {
				if calls[pid] != 4 || e == nil || !strings.Contains(e.Error(), "msgnet: send to invalid process") {
					t.Fatalf("%s, to %d: p%d got %v after %d handler calls", name, to, pid, e, calls[pid])
				}
			}
			if len(out.Errs) != 3 {
				t.Fatalf("%s, to %d: errors %v, want one per process", name, to, out.Errs)
			}
		}
	}
}

// TestPanicInHandlerUnwindsEveryBody: a handler's panic is one more abort —
// recovered on the holder it ran on, every body unwound, the original value
// raised on Run's caller, no goroutine left parked.
func TestPanicInHandlerUnwindsEveryBody(t *testing.T) {
	for name, under := range drivers {
		base := runtime.NumGoroutine()
		v := caught(func() {
			Run(4, Config{Chooser: Seeded(3)}, func(nd *Node) (core.Value, error) {
				r := &relay{sub: under(nd), sends: 8, fail: func() (Op, bool) { panic("boom") }}
				if nd.Me == 2 {
					r.failAt = 5
				}
				_, err := r.run()
				return nil, err
			})
		})
		if v != "boom" {
			t.Fatalf("%s: Run panicked with %v, want boom", name, v)
		}
		settle(t, base, name)
	}
}

// TestFailedOperationSkipsHandler: an operation that a crash, or the abort
// after the step budget, fails mid-drive wakes the body with ErrCrashed and
// is not shown to the handler; the budget's error is the one a body looping
// over Send gets (Pending does not list the process whose operation crossed
// the line: it is between operations, as a woken body would be).
func TestFailedOperationSkipsHandler(t *testing.T) {
	for name, under := range drivers {
		calls := make([]int, 3)
		out, err := Run(3, Config{Chooser: Seeded(5), Crash: map[core.PID]int{0: 3}, MaxSteps: 14}, func(nd *Node) (core.Value, error) {
			r := &relay{sub: under(nd), sends: 9}
			_, err := r.run()
			calls[nd.Me] = r.calls
			return nil, err
		})
		var limit *StepLimitError
		if !errors.As(err, &limit) || limit.Steps != 14 || len(limit.Pending) != 1 {
			t.Fatalf("%s: err %v, want the step budget with one process pending", name, err)
		}
		// Steps 0..14 run before the budget aborts: p0's three operations, the
		// one its crash fails, and eleven more.
		if calls[0] != 3 || calls[1]+calls[2] != 11 {
			t.Fatalf("%s: handler calls %v, want 3 at the crashed process and 11 at the others: one per operation applied", name, calls)
		}
		for pid := core.PID(0); pid < 3; pid++ {
			if !errors.Is(out.Errs[pid], ErrCrashed) {
				t.Fatalf("%s: p%d returned %v, want ErrCrashed", name, pid, out.Errs[pid])
			}
		}
	}
}
