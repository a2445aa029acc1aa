package chaos

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/msgnet"
	"repro/internal/reliablelink"
)

// execution is everything Execute returns for one run.
type execution struct {
	out       *core.RoundOutcome
	rep       *reliablelink.RunReport
	decisions map[core.PID]core.Value
	err       error
}

// goldenSlice executes the first 40 runs of the golden campaign.
func goldenSlice() []execution {
	cfg := goldenCampaign
	cfg.Runs = 40
	var xs []execution
	eachRun(cfg, func(_ int, sched int64, plan faultnet.Plan, crashes map[core.PID]int) {
		var x execution
		x.out, x.rep, x.decisions, x.err = Execute(cfg, sched, plan, crashes)
		xs = append(xs, x)
	})
	return xs
}

// delayCopy queues every message at once and a second copy steps later.
type delayCopy int

func (d delayCopy) OnSend(int, core.PID, core.PID) msgnet.FaultAction {
	return msgnet.FaultAction{Deliveries: []int{0, int(d)}}
}

// mustPanic runs f, which must panic.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestPoolHygiene: msgnet's scratch and reliablelink's tables outlive their
// run, so what a run leaves in them — queued mail, delayed copies, frames
// awaiting acks, a panic's half-done step, another n's layout — must not
// reach the next one. The first 40 runs of the golden campaign, run again
// after all of that, equal the same runs done on fresh state.
func TestPoolHygiene(t *testing.T) {
	runtime.GC()
	runtime.GC() // two cycles empty every sync.Pool: the reference starts fresh
	want := goldenSlice()

	// A deadlock, with mail queued at p2, which returned without reading it.
	_, err := msgnet.Run(3, msgnet.Config{}, func(nd *msgnet.Node) (core.Value, error) {
		if nd.Me == 2 {
			return nil, nil
		}
		if err := nd.Send(2, "left queued"); err != nil {
			return nil, err
		}
		_, err := nd.Recv()
		return nil, err
	})
	var dl *msgnet.DeadlockError
	if !errors.As(err, &dl) || len(dl.InFlight) == 0 {
		t.Fatalf("deadlock run: %v, want a deadlock with mail in flight", err)
	}

	// A run out of steps with mail queued and delayed copies pending.
	_, err = msgnet.Run(3, msgnet.Config{MaxSteps: 100, Faults: delayCopy(1000)}, func(nd *msgnet.Node) (core.Value, error) {
		if err := nd.Broadcast("twice"); err != nil || nd.Me == 2 {
			return nil, err
		}
		for {
			if _, err := nd.Recv(); err != nil {
				return nil, err
			}
		}
	})
	if !errors.Is(err, msgnet.ErrMaxSteps) {
		t.Fatalf("delayed run: %v, want the step budget exhausted", err)
	}

	// Links out of steps with frames unacknowledged, sent and seen.
	lossy := faultnet.Plan{Seed: 3, Components: []faultnet.Component{{Kind: faultnet.Drop, Rate: 0.5}}}
	if _, _, err := reliablelink.RunRounds(6, 2, 4, reliablelink.RoundsConfig{
		Net: msgnet.Config{Chooser: core.Seeded(5), MaxSteps: 400, Faults: lossy.Injector()},
	}, proposal); !errors.Is(err, msgnet.ErrMaxSteps) {
		t.Fatalf("lossy links: %v, want the step budget exhausted", err)
	}

	// Panics: a body's mid-run, and one in the round loop over links.
	mustPanic(t, "msgnet body", func() {
		_, _ = msgnet.Run(4, msgnet.Config{Faults: delayCopy(50)}, func(nd *msgnet.Node) (core.Value, error) {
			if err := nd.Broadcast("before"); err != nil {
				return nil, err
			}
			if nd.Me == 1 {
				panic("body")
			}
			_, err := nd.Recv()
			return nil, err
		})
	})
	mustPanic(t, "round emit", func() {
		_, _, _ = reliablelink.RunRounds(6, 2, 3, reliablelink.RoundsConfig{
			Net: msgnet.Config{Faults: lossy.Injector()},
		}, func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
			if r == 2 && me == 3 {
				panic("emit")
			}
			return int(me)
		})
	})

	// Alternating sizes: an n=3 run over an n=6 layout and back.
	faulty := faultnet.Plan{Seed: 9, Components: []faultnet.Component{
		{Kind: faultnet.Duplicate, Rate: 0.3, Copies: 2},
		{Kind: faultnet.Delay, Rate: 0.4, MaxDelay: 12},
	}}
	for i := 0; i < 6; i++ {
		n := 6 - 3*(i%2)
		if _, _, err := reliablelink.RunRounds(n, (n-1)/2, 3, reliablelink.RoundsConfig{
			Net: msgnet.Config{Chooser: core.Seeded(int64(i)), Faults: faulty.Injector()},
		}, proposal); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}

	for i, got := range goldenSlice() {
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("run %d after reuse:\n got %+v\n     %+v\nwant %+v\n     %+v", i, got.out, *got.rep, want[i].out, *want[i].rep)
		}
	}
}

// TestGoldenCampaignAllocsPerRun pins what one run of the golden campaign
// allocates once msgnet's queues and reliablelink's tables are reused, an
// ack is boxed once per frame, a broadcast's frames share a box, a body
// runs on a pooled coroutine and a round of the induced trace is one word
// slab: 216 objects a run here, 244 with a set per trace row, 257 with a
// goroutine and a channel per body, ≈ 828 before the reuse. A table
// regrown per run, an ack boxed per transmission, coroutines no longer
// pooled or trace rows allocated one by one break the ceiling.
func TestGoldenCampaignAllocsPerRun(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	allocs := testing.AllocsPerRun(1, func() {
		if sum := Run(goldenCampaign); !sum.Ok() {
			t.Fatal(sum)
		}
	})
	const ceiling = 225
	if perRun := allocs / float64(goldenCampaign.Runs); perRun > ceiling {
		t.Fatalf("%.0f allocs over %d runs = %.0f a run, ceiling %d", allocs, goldenCampaign.Runs, perRun, ceiling)
	} else {
		t.Logf("%.0f allocs over %d runs = %.0f a run", allocs, goldenCampaign.Runs, perRun)
	}
}
