package msgnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// spy hides its node from Drive, so that a gather is taken by the loop, and
// counts the round messages that arrive ahead of the round the process
// broadcast last: the ones a Gather must buffer.
type spy struct {
	Substrate
	round int
	early *int
}

func (s *spy) Broadcast(payload core.Value) error {
	if m, ok := payload.(RoundMsg); ok {
		s.round = m.Round
	}
	return s.Substrate.Broadcast(payload)
}

func (s *spy) Recv() (Envelope, error) {
	env, err := s.Substrate.Recv()
	s.count(env)
	return env, err
}

func (s *spy) RecvTimeout(deadline int) (Envelope, bool, error) {
	env, ok, err := s.Substrate.RecvTimeout(deadline)
	s.count(env)
	return env, ok, err
}

func (s *spy) count(env Envelope) {
	if m, ok := env.Payload.(RoundMsg); ok && m.Round > s.round {
		*s.early++
	}
}

// TestGatherDriversAgree: RunSubstrateRounds on a bare node, where a round's
// gather is one drive on the baton holders, and on the node hidden from
// Drive, where it is the loop with a wake a message, give the same event
// stream, records, stalls and Outcome, byte for byte — with early round
// messages buffered, watchdogs firing mid-gather, a crash, and a foreign
// payload ending a gather with its error.
func TestGatherDriversAgree(t *testing.T) {
	const n, f, rounds = 5, 1, 5
	var early, stalls, crashes, foreign int
	run := func(seed int64, loop bool) string {
		var buf bytes.Buffer
		recs := make([]*core.RoundRec, n)
		st := make([][]Stall, n)
		out, err := Run(n, Config{
			Chooser:  Seeded(seed),
			Crash:    map[core.PID]int{3: 4 + int(seed)%12},
			Faults:   &wideFaults{rng: rand.New(rand.NewSource(seed))},
			Observer: obs.NewEventLog(&buf),
		}, func(nd *Node) (core.Value, error) {
			var sub Substrate = nd
			if loop {
				sub = &spy{Substrate: nd, early: &early}
			}
			if nd.Me == 4 && seed%3 == 0 {
				if err := sub.Send(0, "foreign"); err != nil {
					return nil, err
				}
			}
			rec, s, err := RunSubstrateRounds(sub, f, rounds, 25, 8, func(me core.PID, r int, _ map[core.PID]core.Value, _ core.Set) core.Value {
				return int(me)*rounds + r
			}, nil)
			recs[nd.Me], st[nd.Me] = rec, s
			return len(s), err
		})
		if loop {
			crashes += out.Crashed.Count()
			for pid := range st {
				stalls += len(st[pid])
				if e := out.Errs[core.PID(pid)]; e != nil && strings.Contains(e.Error(), "foreign payload") {
					foreign++
				}
			}
		}
		for pid := range recs {
			fmt.Fprintf(&buf, "p%d %v %v\n", pid, recs[pid], st[pid])
		}
		return render(out, err) + "\n" + buf.String()
	}
	for seed := int64(1); seed <= 24; seed++ {
		want := run(seed, true)
		if got := run(seed, false); got != want {
			t.Fatalf("seed %d: the holders' gather differs from the loop's\n got %s\nwant %s", seed, got, want)
		}
	}
	if early == 0 || stalls == 0 || crashes == 0 || foreign == 0 {
		t.Fatalf("%d early messages, %d stalls, %d crashes, %d foreign payloads: the seeds must exercise all four", early, stalls, crashes, foreign)
	}
	t.Logf("%d early messages, %d stalls, %d crashes, %d foreign payloads", early, stalls, crashes, foreign)
}
