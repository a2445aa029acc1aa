package msgnet

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestGoldenRunRounds pins one seeded execution of the unreliable round
// protocol — step count and induced trace — recorded before RunRounds
// became a caller of RunSubstrateRounds. A plain-Recv round must cost
// exactly the steps it always did.
func TestGoldenRunRounds(t *testing.T) {
	out, err := RunRounds(5, 2, 4, Config{
		Chooser: Seeded(7),
		Crash:   map[core.PID]int{4: 9},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("steps=%d trace=%x", out.Steps, sha256.Sum256([]byte(out.Trace.String())))
	const want = "steps=154 trace=0cf037718fa6cd582d5d131d2ced88e8b7b9620277f8c894c0bafd8478ca696d"
	if got != want {
		t.Fatalf("got  %s\nwant %s\n%s", got, want, out.Trace)
	}
}

// wideFaults is a seeded injector for the multiword pin: of every hundred
// sends it drops three, duplicates five (a second copy up to 40 steps
// late) and delays ten.
type wideFaults struct {
	rng  *rand.Rand
	dels []int
}

func (w *wideFaults) OnSend(int, core.PID, core.PID) FaultAction {
	d := 1 + w.rng.Intn(40)
	switch x := w.rng.Intn(100); {
	case x < 3:
		return FaultAction{Reason: "drop"}
	case x < 8:
		w.dels = append(w.dels[:0], 0, d)
	case x < 18:
		w.dels = append(w.dels[:0], d)
	default:
		return deliverNow
	}
	return FaultAction{Deliveries: w.dels}
}

// TestGoldenWideRun pins one seeded execution at n = 70, past the 64 pids
// one machine word holds: watchdogged rounds under drops, duplicates and
// delayed copies, p65 crashed and restarted and p3 crashed for good, so
// who can step, whose deadline comes next and which senders a mailbox
// holds span two words. The hash covers the observed event stream, every
// process's record and stalls, and the outcome.
func TestGoldenWideRun(t *testing.T) {
	const n, f, rounds = 70, 8, 3
	h, m := sha256.New(), obs.NewMetrics()
	recs := make([]*core.RoundRec, n)
	stalls := make([][]Stall, n)
	out, err := Run(n, Config{
		Chooser:  Seeded(11),
		Crash:    map[core.PID]int{65: 150, 3: 40},
		Restart:  map[core.PID]int{65: 30},
		Faults:   &wideFaults{rng: rand.New(rand.NewSource(5))},
		Observer: obs.Multi(obs.NewEventLog(h), m),
	}, func(nd *Node) (core.Value, error) {
		rec, st, err := RunSubstrateRounds(nd, f, rounds, 400, 60, func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
			return int(me)*rounds + r
		}, nil)
		recs[nd.Me], stalls[nd.Me] = rec, st
		return len(st), err
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := m.Snapshot().Events
	for _, kind := range []string{"faultnet.drop", "faultnet.dup", "faultnet.delay", "msgnet.timeout", "msgnet.advance", "msgnet.restart"} {
		if ev[kind] == 0 {
			t.Errorf("no %s event: the pin must exercise it", kind)
		}
	}
	for pid := range recs {
		fmt.Fprintf(h, "p%d %v %v %v %v\n", pid, out.Values[core.PID(pid)], out.Errs[core.PID(pid)], recs[pid], stalls[pid])
	}
	got := fmt.Sprintf("steps=%d crashed=%s restarted=%s hash=%x", out.Steps, out.Crashed, out.Restarted, h.Sum(nil))
	const want = "steps=29100 crashed={3,65} restarted={65} hash=e061ca3f06ec0b12b2326d22761f3d9d7f00b793eef01327e8a932983b85c20b"
	if got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}
