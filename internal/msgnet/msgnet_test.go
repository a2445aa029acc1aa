package msgnet

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSendRecvBasic(t *testing.T) {
	out, err := Run(2, Config{}, func(nd *Node) (core.Value, error) {
		if nd.Me == 0 {
			if err := nd.Send(1, "hello"); err != nil {
				return nil, err
			}
			return "sent", nil
		}
		env, err := nd.Recv()
		if err != nil {
			return nil, err
		}
		return env, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	env := out.Values[1].(Envelope)
	if env.From != 0 || env.To != 1 || env.Payload != "hello" {
		t.Fatalf("envelope = %+v", env)
	}
}

func TestPerLinkFIFO(t *testing.T) {
	// Messages on the same link must arrive in send order, regardless of
	// the adversary.
	for seed := int64(0); seed < 20; seed++ {
		out, err := Run(2, Config{Chooser: Seeded(seed)}, func(nd *Node) (core.Value, error) {
			if nd.Me == 0 {
				for i := 0; i < 5; i++ {
					if err := nd.Send(1, i); err != nil {
						return nil, err
					}
				}
				return nil, nil
			}
			var got []int
			for len(got) < 5 {
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
		got := out.Values[1].([]int)
		for i, v := range got {
			if v != i {
				t.Fatalf("seed %d: FIFO violated: %v", seed, got)
			}
		}
	}
}

func TestCrossLinkReordering(t *testing.T) {
	// Across links the adversary may reorder: find a seed where p2 hears
	// p1 before p0 even though p0 sent first in program order.
	sawReorder := false
	for seed := int64(0); seed < 50 && !sawReorder; seed++ {
		out, err := Run(3, Config{Chooser: Seeded(seed)}, func(nd *Node) (core.Value, error) {
			switch nd.Me {
			case 0, 1:
				return nil, nd.Send(2, int(nd.Me))
			default:
				first, err := nd.Recv()
				if err != nil {
					return nil, err
				}
				return first.From, nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Values[2] == core.PID(1) {
			sawReorder = true
		}
	}
	if !sawReorder {
		t.Fatal("no seed delivered p1's message first — adversary too weak")
	}
}

func TestBroadcastIncludesSelf(t *testing.T) {
	out, err := Run(3, Config{Chooser: Seeded(3)}, func(nd *Node) (core.Value, error) {
		if err := nd.Broadcast(int(nd.Me)); err != nil {
			return nil, err
		}
		seen := core.NewSet(nd.N)
		for seen.Count() < nd.N {
			env, err := nd.Recv()
			if err != nil {
				return nil, err
			}
			seen.Add(env.From)
		}
		return seen, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for pid, v := range out.Values {
		if !v.(core.Set).Equal(core.FullSet(3)) {
			t.Fatalf("process %d heard only %s", pid, v)
		}
	}
}

func TestCrashStopsProcess(t *testing.T) {
	out, err := Run(2, Config{Chooser: Seeded(1), Crash: map[core.PID]int{0: 1}},
		func(nd *Node) (core.Value, error) {
			if nd.Me == 0 {
				if err := nd.Send(1, "a"); err != nil {
					return nil, err
				}
				if err := nd.Send(1, "b"); err != nil {
					return nil, err
				}
				return "done", nil
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
	if !errors.Is(out.Errs[0], ErrCrashed) {
		t.Fatalf("p0 err = %v", out.Errs[0])
	}
	// The first send completed before the crash; in-flight messages from
	// a crashed process remain deliverable.
	if out.Values[1] != "a" {
		t.Fatalf("p1 got %v, want the in-flight message a", out.Values[1])
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, err := Run(2, Config{}, func(nd *Node) (core.Value, error) {
		_, err := nd.Recv() // nobody ever sends
		return nil, err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestSendValidation(t *testing.T) {
	out, err := Run(1, Config{}, func(nd *Node) (core.Value, error) {
		return nil, nd.Send(7, "x")
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Errs[0] == nil {
		t.Fatal("send to out-of-range process must fail")
	}
}

func TestInvalidProcessCount(t *testing.T) {
	if _, err := Run(0, Config{}, func(nd *Node) (core.Value, error) { return nil, nil }); err == nil {
		t.Fatal("expected error")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() int {
		out, err := Run(3, Config{Chooser: Seeded(11)}, func(nd *Node) (core.Value, error) {
			if err := nd.Broadcast(int(nd.Me)); err != nil {
				return nil, err
			}
			sum := 0
			for i := 0; i < 3; i++ {
				env, err := nd.Recv()
				if err != nil {
					return nil, err
				}
				sum = sum*10 + env.Payload.(int)
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := 0; i < 3; i++ {
			total = total*1000 + out.Values[core.PID(i)].(int)
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
}

// TestBadChooserUnwindsEveryBody: a chooser answering out of range, on its
// k-th call, is an error — and every body must still return, failed with
// ErrCrashed. Under the always-first chooser p0 broadcasts in calls 1–3 and
// is picked to receive in call 4, so call 5 is a which-sender choice.
func TestBadChooserUnwindsEveryBody(t *testing.T) {
	for k, want := range map[int]string{1: "chooser returned 3 for 3 options", 5: "chooser returned 1 for 1 senders"} {
		const n = 3
		var bodies sync.WaitGroup
		bodies.Add(n)
		calls := 0
		done := make(chan error, 1)
		go func() {
			_, err := Run(n, Config{Chooser: func(step int, options []core.PID) int {
				if calls++; calls == k {
					return len(options)
				}
				return 0
			}}, func(nd *Node) (core.Value, error) {
				defer bodies.Done()
				if err := nd.Broadcast("x"); err != nil {
					return nil, err
				}
				for {
					if _, err := nd.Recv(); err != nil {
						return nil, err
					}
				}
			})
			bodies.Wait()
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("k=%d: err = %v, want %q", k, err, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("k=%d: bodies still parked after a bad chooser answer", k)
		}
	}
}
