package msgnet_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/netsub"
	"repro/internal/reliablelink"
)

// emitMin floods the minimum pid heard so far, the k-set-agreement shape.
func emitMin(me core.PID, _ int, received map[core.PID]core.Value, _ core.Set) core.Value {
	min := int(me)
	for _, v := range received {
		if x, ok := v.(int); ok && x < min {
			min = x
		}
	}
	return min
}

// TestSameBodyBothSubstrates runs the IDENTICAL protocol function —
// RunSubstrateRounds — on the virtual-clock scheduler, on the same
// scheduler under a reliablelink.Link decorator, and on real TCP, and
// checks all three induce traces with the same structural guarantees.
// This is the substrate-portability property the Substrate interface
// exists for: the body never learns which clock it is on, nor whether
// its receives are acknowledged underneath.
func TestSameBodyBothSubstrates(t *testing.T) {
	const n, f, rounds = 3, 1, 2

	// virtual runs the body inside scheduler processes, each on whatever
	// substrate wrap makes of its node.
	virtual := func(wrap func(*msgnet.Node) msgnet.Substrate) *core.RoundOutcome {
		recs := make([]*core.RoundRec, n)
		out, err := msgnet.Run(n, msgnet.Config{Chooser: msgnet.Seeded(7)}, func(nd *msgnet.Node) (core.Value, error) {
			rec, stalls, err := msgnet.RunSubstrateRounds(wrap(nd), f, rounds, 4096, 512, emitMin, nil)
			if len(stalls) > 0 {
				t.Errorf("fault-free virtual run stalled: %v", stalls)
			}
			recs[nd.Me] = rec
			return nil, err
		})
		if err != nil {
			t.Fatalf("msgnet run: %v", err)
		}
		return core.AssembleRoundOutcome(n, recs, out.Crashed, out.Steps)
	}

	networked, rep, err := netsub.RunRounds(n, f, rounds, netsub.RoundsConfig{
		Node: netsub.Config{
			HeartbeatEvery: 20 * time.Millisecond,
			WriteTimeout:   500 * time.Millisecond,
			DialTimeout:    500 * time.Millisecond,
			RedialUnit:     2 * time.Millisecond,
		},
		Watchdog: 2 * time.Second,
	}, emitMin)
	if err != nil {
		t.Fatalf("netsub run: %v", err)
	}
	if rep.Stalled() {
		t.Fatalf("netsub run stalled: %+v", *rep)
	}

	// A link whose node is hidden from msgnet.Drive runs its drives as plain
	// loops on the body's goroutine; over the bare node the baton holders run
	// them. The execution is the same one.
	link := virtual(func(nd *msgnet.Node) msgnet.Substrate { return reliablelink.New(nd, reliablelink.Config{}) })
	looped := virtual(func(nd *msgnet.Node) msgnet.Substrate {
		return reliablelink.New(struct{ msgnet.Substrate }{nd}, reliablelink.Config{})
	})
	if !reflect.DeepEqual(link, looped) {
		t.Fatalf("link over a node and over a hidden node differ:\n%+v\n%+v", link, looped)
	}

	for name, out := range map[string]*core.RoundOutcome{
		"virtual":     virtual(func(nd *msgnet.Node) msgnet.Substrate { return nd }),
		"link":        link,
		"link/looped": looped,
		"tcp":         networked,
	} {
		if out.Trace.Len() != rounds {
			t.Fatalf("%s: trace length %d, want %d", name, out.Trace.Len(), rounds)
		}
		for r := 1; r <= rounds; r++ {
			rec := out.Trace.Round(r)
			for i := 0; i < n; i++ {
				if !rec.Active.Has(core.PID(i)) {
					t.Fatalf("%s round %d: p%d inactive", name, r, i)
				}
				if rec.Suspects[i].Count() > f {
					t.Fatalf("%s round %d: |D(%d,r)| > f", name, r, i)
				}
			}
		}
	}
}
