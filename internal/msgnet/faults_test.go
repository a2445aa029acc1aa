package msgnet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// dropAll drops every non-loopback message.
type dropAll struct{}

func (dropAll) OnSend(step int, from, to core.PID) FaultAction {
	return FaultAction{Reason: "drop"}
}

// dropFirst drops the first k non-loopback sends, then delivers.
type dropFirst struct{ k int }

func (d *dropFirst) OnSend(step int, from, to core.PID) FaultAction {
	if d.k > 0 {
		d.k--
		return FaultAction{Reason: "drop"}
	}
	return deliverNow
}

type fixedAction struct{ act FaultAction }

func (f fixedAction) OnSend(int, core.PID, core.PID) FaultAction { return f.act }

func TestInjectedDropLosesMessage(t *testing.T) {
	m := obs.NewMetrics()
	_, err := Run(2, Config{Faults: dropAll{}, Observer: m}, func(nd *Node) (core.Value, error) {
		if nd.Me == 0 {
			return nil, nd.Send(1, "x")
		}
		_, err := nd.Recv()
		return nil, err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock: the only message was dropped", err)
	}
	if ev := m.Snapshot().Events; ev["faultnet.drop"] != 1 {
		t.Fatalf("drop events = %d (events %v)", ev["faultnet.drop"], ev)
	}
}

func TestInjectedDuplicateDeliversTwice(t *testing.T) {
	out, err := Run(2, Config{Faults: fixedAction{FaultAction{Deliveries: []int{0, 0}}}},
		func(nd *Node) (core.Value, error) {
			if nd.Me == 0 {
				return nil, nd.Send(1, "x")
			}
			var got []core.Value
			for i := 0; i < 2; i++ {
				env, err := nd.Recv()
				if err != nil {
					return nil, err
				}
				got = append(got, env.Payload)
			}
			return got, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Values[1].([]core.Value)
	if len(got) != 2 || got[0] != "x" || got[1] != "x" {
		t.Fatalf("duplicated delivery = %v", got)
	}
}

func TestInjectedDelayFastForwards(t *testing.T) {
	// The only message is delayed 50 steps; the blocking receiver must
	// still get it (virtual time fast-forwards) rather than deadlock.
	out, err := Run(2, Config{Faults: fixedAction{FaultAction{Deliveries: []int{50}}}},
		func(nd *Node) (core.Value, error) {
			if nd.Me == 0 {
				return nil, nd.Send(1, "late")
			}
			env, err := nd.Recv()
			if err != nil {
				return nil, err
			}
			return env.Payload, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if out.Values[1] != "late" {
		t.Fatalf("p1 got %v", out.Values[1])
	}
	if out.Steps < 50 {
		t.Fatalf("steps = %d, want the clock fast-forwarded past the 50-step delay", out.Steps)
	}
}

func TestLoopbackLinkIsReliable(t *testing.T) {
	// Self-sends bypass injection even under a drop-everything plan.
	out, err := Run(1, Config{Faults: dropAll{}}, func(nd *Node) (core.Value, error) {
		if err := nd.Send(0, "self"); err != nil {
			return nil, err
		}
		env, err := nd.Recv()
		if err != nil {
			return nil, err
		}
		return env.Payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Values[0] != "self" {
		t.Fatalf("got %v", out.Values[0])
	}
}

func TestRecvTimeoutExpires(t *testing.T) {
	out, err := Run(2, Config{}, func(nd *Node) (core.Value, error) {
		if nd.Me == 0 {
			// Never sends; its timed receive must expire, not deadlock.
			_, ok, err := nd.RecvTimeout(nd.Clock() + 10)
			if err != nil {
				return nil, err
			}
			return ok, nil
		}
		_, ok, err := nd.RecvTimeout(nd.Clock() + 10)
		if err != nil {
			return nil, err
		}
		return ok, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Values[0] != false || out.Values[1] != false {
		t.Fatalf("timed receives = %v, want both expired", out.Values)
	}
	if out.Steps < 10 {
		t.Fatalf("steps = %d, want the clock advanced to the deadline", out.Steps)
	}
}

func TestRecvTimeoutPrefersDelivery(t *testing.T) {
	out, err := Run(2, Config{}, func(nd *Node) (core.Value, error) {
		if nd.Me == 0 {
			return nil, nd.Send(1, "hi")
		}
		env, ok, err := nd.RecvTimeout(nd.Clock() + 1000)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, errors.New("timed out despite a pending message")
		}
		return env.Payload, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Values[1] != "hi" {
		t.Fatalf("p1 got %v", out.Values[1])
	}
}

func TestDeadlockErrorCarriesDiagnosis(t *testing.T) {
	// p0 sends one message to p2 (who returns without receiving), then p1
	// and p2... arrange: p1 blocks forever with an empty mailbox while an
	// undelivered message sits queued at finished p0.
	_, err := Run(3, Config{Faults: &dropFirst{0}}, func(nd *Node) (core.Value, error) {
		switch nd.Me {
		case 0:
			// Sends to itself a message it never receives, then returns:
			// the queue p0←p0 stays loaded.
			return nil, nd.Send(0, "stranded")
		case 1:
			_, err := nd.Recv() // nobody ever sends to p1
			return nil, err
		default:
			_, err := nd.Recv() // nobody ever sends to p2
			return nil, err
		}
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %T %v, want *DeadlockError", err, err)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatal("DeadlockError must match ErrDeadlock")
	}
	if len(dl.Blocked) != 2 || dl.Blocked[0] != 1 || dl.Blocked[1] != 2 {
		t.Fatalf("blocked = %v, want [1 2]", dl.Blocked)
	}
	if len(dl.InFlight) != 1 || dl.InFlight[0] != (LinkLoad{From: 0, To: 0, Queued: 1}) {
		t.Fatalf("in-flight = %v, want the stranded p0→p0 message", dl.InFlight)
	}
	for _, want := range []string{"processes [1 2] blocked", "p0→p0:1"} {
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("error %q lacks %q", err, want)
		}
	}
}

func TestStepLimitErrorCarriesPending(t *testing.T) {
	_, err := Run(2, Config{MaxSteps: 8}, func(nd *Node) (core.Value, error) {
		for {
			if err := nd.Send(1-nd.Me, "ping"); err != nil {
				return nil, err
			}
			if _, err := nd.Recv(); err != nil {
				return nil, err
			}
		}
	})
	var sl *StepLimitError
	if !errors.As(err, &sl) {
		t.Fatalf("err = %T %v, want *StepLimitError", err, err)
	}
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatal("StepLimitError must match ErrMaxSteps")
	}
	if sl.Steps != 8 {
		t.Fatalf("budget = %d, want 8", sl.Steps)
	}
}

func TestFaultDeterminism(t *testing.T) {
	// Same chooser seed, same injector behaviour: the observable event
	// stream must be byte-identical across runs.
	run := func() []byte {
		var buf bytes.Buffer
		log := obs.NewEventLog(&buf)
		_, err := Run(3, Config{
			Chooser:  Seeded(42),
			Faults:   &dropFirst{3},
			Observer: log,
		}, func(nd *Node) (core.Value, error) {
			if err := nd.Broadcast(int(nd.Me)); err != nil {
				return nil, err
			}
			for {
				_, ok, err := nd.RecvTimeout(nd.Clock() + 30)
				if err != nil {
					return nil, err
				}
				if !ok {
					return nil, nil
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}

// scripted answers the k-th non-loopback send with the k-th action.
type scripted struct {
	acts []FaultAction
	k    int
}

func (s *scripted) OnSend(int, core.PID, core.PID) FaultAction {
	act := s.acts[s.k]
	s.k++
	return act
}

// TestDelayedCopiesJoinInReleaseThenSendOrder pins the delayed queue's
// ordering rule: copies join the receiver's mailbox by release step, ties
// broken by send order, so a later-sent copy with an earlier release
// overtakes (the reordering fault) and equal releases stay FIFO.
func TestDelayedCopiesJoinInReleaseThenSendOrder(t *testing.T) {
	// p0's k-th send executes at step k; payload k is delayed so that it
	// releases at the step in the comment.
	script := &scripted{acts: []FaultAction{
		{Deliveries: []int{10}}, // 0: release 10
		{Deliveries: []int{9}},  // 1: release 10, sent after 0
		{Deliveries: []int{3}},  // 2: release 5, overtakes both
		{Deliveries: []int{7}},  // 3: release 10, sent after 1
		{Deliveries: []int{8}},  // 4: release 12
		{Deliveries: []int{5}},  // 5: release 10, sent after 3, joins before 4
	}}
	out, err := Run(2, Config{Faults: script}, func(nd *Node) (core.Value, error) {
		if nd.Me == 0 {
			for k := range script.acts {
				if err := nd.Send(1, k); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		var got []int
		for range script.acts {
			env, err := nd.Recv()
			if err != nil {
				return nil, err
			}
			got = append(got, env.Payload.(int))
		}
		return got, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(out.Values[1]), "[2 0 1 3 5 4]"; got != want {
		t.Fatalf("delivery order %s, want %s", got, want)
	}
}

// TestDeadlockErrorOrdersInFlightLinks strands mail on four links and pins
// the diagnosis: InFlight sorted by (From, To), and the rendered text.
func TestDeadlockErrorOrdersInFlightLinks(t *testing.T) {
	_, err := Run(4, Config{Chooser: Seeded(3)}, func(nd *Node) (core.Value, error) {
		if nd.Me == 0 || nd.Me == 3 {
			return nil, nil // never receive: mail addressed here is stranded
		}
		for _, to := range []core.PID{3, 0, 0}[:4-nd.Me] {
			if err := nd.Send(to, "stranded"); err != nil {
				return nil, err
			}
		}
		_, err := nd.Recv() // nobody sends to p1 or p2
		return nil, err
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %T %v, want *DeadlockError", err, err)
	}
	want := []LinkLoad{{1, 0, 2}, {1, 3, 1}, {2, 0, 1}, {2, 3, 1}}
	if fmt.Sprint(dl.InFlight) != fmt.Sprint(want) {
		t.Fatalf("in-flight = %v, want %v", dl.InFlight, want)
	}
	const text = "msgnet: deadlock at step 5: processes [1 2] blocked on receive; in-flight: p1→p0:2 p1→p3:1 p2→p0:1 p2→p3:1"
	if err.Error() != text {
		t.Fatalf("error text\n got %s\nwant %s", err, text)
	}
}
