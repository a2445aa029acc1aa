package reliablelink

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
	"repro/internal/obs"
)

// hidden keeps msgnet.Drive from recognising the node under a link, so the
// link's drives are loops on the body's goroutine; native lets the baton
// holders run them. The two must be the same execution.
func hidden(nd *msgnet.Node) msgnet.Substrate { return struct{ msgnet.Substrate }{nd} }

func native(nd *msgnet.Node) msgnet.Substrate { return nd }

var drivers = []struct {
	name  string
	under func(*msgnet.Node) msgnet.Substrate
}{{"holder", native}, {"loop", hidden}}

// wakes reads the hand-over count of a finished run — baton's unexported
// counter — off any of its nodes.
func wakes(nd *msgnet.Node) int {
	return int(reflect.ValueOf(nd).Elem().FieldByName("sched").Elem().FieldByName("baton").Elem().FieldByName("wakes").Int())
}

// TestGoldensUnderBothDrivers reruns the two executions golden_test.go pins
// — same configurations, same committed hashes — with the links' drives
// taken by the baton holders and by the loop: the event stream, the report
// and the induced trace are equal, and equal to golden_test.go's.
func TestGoldensUnderBothDrivers(t *testing.T) {
	cases := []struct {
		name      string
		n, f, rds int
		plan      faultnet.Plan
		cfg       func(inj msgnet.FaultInjector, log obs.Observer) RoundsConfig
		want      string
	}{
		{"stalled", 3, 1, 2,
			faultnet.Plan{Seed: 1, Components: []faultnet.Component{{
				Kind: faultnet.Partition, Groups: [][]core.PID{{0, 2}, {1}}, Name: "island-p1",
			}}},
			func(inj msgnet.FaultInjector, log obs.Observer) RoundsConfig {
				return RoundsConfig{
					Net:           msgnet.Config{Chooser: core.Seeded(11), Faults: inj, Observer: log},
					Link:          Config{retransmitAfter: 4, retransmitCap: 8, maxAttempts: 2, Observer: log},
					WatchdogSteps: 600,
					LingerSteps:   200,
				}
			},
			"steps=1415 lines=176 stream=69fbb7d8ccc04b9e9b06cc1593a0131b98c834fbe5cb0ec157c5f66f8d342fc4"},
		{"faulty restart", 4, 1, 3,
			faultnet.Plan{Seed: 5, Components: []faultnet.Component{
				{Kind: faultnet.Drop, Rate: 0.3},
				{Kind: faultnet.Duplicate, Rate: 0.3, Copies: 2},
				{Kind: faultnet.Delay, Rate: 0.4, MaxDelay: 12},
			}},
			func(inj msgnet.FaultInjector, log obs.Observer) RoundsConfig {
				return RoundsConfig{
					Net: msgnet.Config{
						Chooser:  core.Seeded(9),
						Crash:    map[core.PID]int{3: 7},
						Restart:  map[core.PID]int{3: 20},
						Faults:   inj,
						Observer: log,
					},
					Link:          Config{retransmitAfter: 4, retransmitCap: 16, maxAttempts: 3, Observer: log},
					WatchdogSteps: 300,
					LingerSteps:   100,
				}
			},
			"steps=657 lines=1168 stream=38148d1fe4b2502d8d6a0dee0f3717a68a7ddf465f42814d61973bad4c3e52d1"},
	}
	for _, c := range cases {
		var first struct {
			out *core.RoundOutcome
			rep *RunReport
		}
		for _, d := range drivers {
			var buf bytes.Buffer
			log := obs.NewEventLog(&buf)
			out, rep, err := runRounds(c.n, c.f, c.rds, c.cfg(c.plan.Injector(), log), nil, d.under)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, d.name, err)
			}
			if got := fmt.Sprintf("steps=%d lines=%d stream=%x", rep.Steps, log.Lines(), sha256.Sum256(buf.Bytes())); got != c.want {
				t.Errorf("%s, %s:\n got %s\nwant %s", c.name, d.name, got, c.want)
			}
			if first.out == nil {
				first.out, first.rep = out, rep
			} else if !reflect.DeepEqual(out, first.out) || !reflect.DeepEqual(rep, first.rep) {
				t.Errorf("%s: the drivers disagree\n%+v\n%+v\n%+v\n%+v", c.name, out, first.out, *rep, *first.rep)
			}
		}
	}
}

// TestStepBudgetMidDriveIsUnchanged: the step budget running out while the
// links are mid-drive — in a broadcast, a retransmission walk, a receive —
// yields the *StepLimitError (Steps, Pending), the step count and the link
// statistics recorded at the parent commit, where the bodies ran those loops
// themselves.
func TestStepBudgetMidDriveIsUnchanged(t *testing.T) {
	for _, c := range []struct {
		max  int
		want string
	}{
		{40, "err=msgnet: step budget 40 exhausted with processes [1 2 3] still pending steps=45 retransmissions=16 stats=[{4 5 0 0 0} {4 3 0 0 0} {4 2 0 0 0} {4 6 0 0 0}]"},
		{41, "err=msgnet: step budget 41 exhausted with processes [0 1 3] still pending steps=46 retransmissions=16 stats=[{4 5 0 0 0} {4 3 0 0 0} {4 2 0 0 0} {4 6 0 0 0}]"},
		{57, "err=msgnet: step budget 57 exhausted with processes [0 2 3] still pending steps=62 retransmissions=25 stats=[{4 5 0 0 0} {6 6 0 0 0} {4 5 0 0 0} {4 9 0 0 1}]"},
		{90, "err=msgnet: step budget 90 exhausted with processes [0 2 3] still pending steps=95 retransmissions=41 stats=[{5 11 0 0 1} {8 9 0 0 0} {8 9 0 0 0} {5 12 0 0 1}]"},
	} {
		for _, d := range drivers {
			plan := faultnet.Plan{Seed: 5, Components: []faultnet.Component{{Kind: faultnet.Drop, Rate: 0.3}}}
			_, rep, err := runRounds(4, 1, 3, RoundsConfig{
				Net:  msgnet.Config{Chooser: core.Seeded(9), MaxSteps: c.max, Faults: plan.Injector()},
				Link: Config{retransmitAfter: 2, retransmitCap: 4},
			}, nil, d.under)
			var limit *msgnet.StepLimitError
			if !errors.As(err, &limit) {
				t.Fatalf("budget %d, %s: err %v, want a *StepLimitError", c.max, d.name, err)
			}
			if got := fmt.Sprintf("err=%v steps=%d retransmissions=%d stats=%v", err, rep.Steps, rep.Retransmissions, rep.PerProc); got != c.want {
				t.Errorf("budget %d, %s:\n got %s\nwant %s", c.max, d.name, got, c.want)
			}
		}
	}
}

// dropTo loses every message to the listed processes.
type dropTo []core.PID

func (d dropTo) OnSend(_ int, _, to core.PID) msgnet.FaultAction {
	for _, p := range d {
		if p == to {
			return msgnet.FaultAction{Reason: "drop"}
		}
	}
	return msgnet.FaultAction{Deliveries: []int{0}}
}

// crashingSub is a four-process scriptedSub whose sends fail from the
// failAt-th on, and whose messages arrive at the last tick of the wait.
type crashingSub struct {
	scriptedSub
	sends, failAt int
}

func (s *crashingSub) Size() int { return 4 }
func (s *crashingSub) RecvTimeout(deadline int) (msgnet.Envelope, bool, error) {
	if s.next != nil {
		s.clock = deadline
	}
	return s.scriptedSub.RecvTimeout(deadline)
}
func (s *crashingSub) Send(core.PID, core.Value) error {
	if s.sends++; s.sends >= s.failAt {
		return msgnet.ErrCrashed
	}
	return nil
}

// TestFailedRetransmissionKeepsTheFramesBehindIt: a walk that has kept one
// frame and compacted a settled one out when a retransmission fails leaves
// the scan order whole — the frames kept so far, then everything from the
// failed one on, as the parent's retransmission loop did — and does not book
// the failed send. First on a scripted substrate, where an ack arrives just as all
// three timers expire; then on the scheduler under both drivers, where p0
// crashes on its first retransmission and the handler never sees it.
func TestFailedRetransmissionKeepsTheFramesBehindIt(t *testing.T) {
	sub := &crashingSub{failAt: 5}
	l := New(sub, Config{})
	for to := core.PID(1); to <= 3; to++ {
		if err := l.Send(to, "x"); err != nil {
			t.Fatal(err)
		}
	}
	sub.next = &msgnet.Envelope{From: 2, To: 0, Payload: frame{Seq: 0, Inc: 1, Ack: true}}
	// The ack settles p2's frame at tick 8, as the timers expire: the walk
	// after it retransmits to p1, drops p2's entry and fails on p3.
	if _, _, err := l.RecvTimeout(100); !errors.Is(err, msgnet.ErrCrashed) {
		t.Fatalf("RecvTimeout returned %v, want ErrCrashed", err)
	}
	if want := []ackKey{{1, 0}, {3, 0}}; !reflect.DeepEqual(l.order, want) {
		t.Errorf("scripted: scan order %v after the failure, want %v", l.order, want)
	}
	if st, want := l.Stats(), (Stats{Sent: 3, Retransmissions: 1, AcksReceived: 1}); st != want {
		t.Errorf("scripted: stats %+v, want %+v", st, want)
	}

	for _, d := range drivers {
		var l *Link
		var got []error
		_, err := msgnet.Run(4, msgnet.Config{Chooser: core.Seeded(2), Faults: dropTo{2, 3}, Crash: map[core.PID]int{0: 7}}, func(nd *msgnet.Node) (core.Value, error) {
			if nd.Me != 0 {
				return nil, linger(New(d.under(nd), Config{}), 40)
			}
			l = New(d.under(nd), Config{})
			if err := l.Broadcast("x"); err != nil { // operations 1–4
				return nil, err
			}
			// 5: its own copy. 6: p1's ack; 7: the first timer; then the
			// crash, on the retransmission to p2.
			for i := 0; i < 2; i++ {
				_, _, err := l.RecvTimeout(msgnet.NoDeadline)
				got = append(got, err)
			}
			return nil, got[1]
		})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != nil || !errors.Is(got[1], msgnet.ErrCrashed) {
			t.Fatalf("%s: RecvTimeout returned %v, want a message and then ErrCrashed", d.name, got)
		}
		if want := []ackKey{{2, 0}, {3, 0}}; !reflect.DeepEqual(l.order, want) {
			t.Errorf("%s: scan order %v after the crash, want %v", d.name, l.order, want)
		}
		if st, want := l.Stats(), (Stats{Sent: 4, AcksReceived: 1}); st != want {
			t.Errorf("%s: stats %+v, want %+v", d.name, st, want)
		}
	}
}
