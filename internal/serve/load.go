package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// LoadRequest is one planted submit: which simulated client makes it, the
// server it is pinned to (an index into the address list), and the
// instance, request ID and value it carries.
type LoadRequest struct {
	Client, Server int
	Inst, Req      string
	Val            int
}

// Load is a service load planted whole before any goroutine starts: every
// client's request stream is drawn from the seed, so the identical load
// (same request IDs, same pins) can be driven again — against a restarted
// server, say. The load generator and the kill-and-recover campaign both
// plant, drive and tally through it. A caller may rewrite Requests between
// PlantLoad and the first Drive.
type Load struct {
	Requests []LoadRequest
}

// PlantLoad draws requests submits for each of clients simulated clients
// from rng: one seed per client, then per request an instance out of
// instances, a value below 1000 and one of servers pins. Client c's i-th
// request carries the ID "c<c>-<i>".
func PlantLoad(rng *rand.Rand, clients, requests, instances, servers int) *Load {
	l := &Load{Requests: make([]LoadRequest, 0, clients*requests)}
	for ci := 0; ci < clients; ci++ {
		crng := rand.New(rand.NewSource(rng.Int63()))
		for ri := 0; ri < requests; ri++ {
			l.Requests = append(l.Requests, LoadRequest{
				Client: ci,
				Inst:   fmt.Sprintf("i%d", crng.Intn(instances)),
				Req:    fmt.Sprintf("c%d-%d", ci, ri),
				Val:    crng.Intn(1000),
				Server: crng.Intn(servers),
			})
		}
	}
	return l
}

// Submitted returns, per instance, the values the load submits to it — what
// Auditor.Violations judges validity against.
func (l *Load) Submitted() map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, rq := range l.Requests {
		if out[rq.Inst] == nil {
			out[rq.Inst] = map[int]bool{}
		}
		out[rq.Inst][rq.Val] = true
	}
	return out
}

// LoadOutcome is what one Drive observed for one request: the final
// response's status and value, or Unreachable when no attempt got one.
type LoadOutcome struct {
	Status      Status
	Val         int
	Latency     time.Duration
	Unreachable bool
}

// Drive submits the whole load over workers goroutines and returns the
// outcomes by request index and the backoff sleeps all clients took. A
// simulated client's requests always ride worker client mod workers, in
// order; each worker holds one Client per server it talks to, built from
// the template cc with Addr filled in and Seed offset by 100·worker+server.
func (l *Load) Drive(addrs []string, workers int, cc ClientConfig) ([]LoadOutcome, int64) {
	perWorker := make([][]int, workers)
	for i, rq := range l.Requests {
		w := rq.Client % workers
		perWorker[w] = append(perWorker[w], i)
	}
	outs := make([]LoadOutcome, len(l.Requests))
	retries := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conns := map[int]*Client{}
			for _, i := range perWorker[w] {
				rq := l.Requests[i]
				c := conns[rq.Server]
				if c == nil {
					wc := cc
					wc.Addr = addrs[rq.Server]
					wc.Seed += int64(100*w + rq.Server)
					c = NewClient(wc)
					conns[rq.Server] = c
				}
				start := time.Now()
				resp, err := c.Submit(rq.Inst, rq.Req, rq.Val)
				outs[i] = LoadOutcome{Status: resp.Status, Val: resp.Val, Latency: time.Since(start), Unreachable: err != nil}
			}
			for _, c := range conns {
				retries[w] += c.Retries
				c.Close()
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, r := range retries {
		total += r
	}
	return outs, total
}

// LoadTally counts one Drive's outcomes.
type LoadTally struct {
	Decided, Abstained, Overloaded, Unreachable int
}

// Tally counts outs by outcome and notes every decided answer in a.
func (l *Load) Tally(a *Auditor, outs []LoadOutcome) LoadTally {
	var t LoadTally
	for i, oc := range outs {
		switch {
		case oc.Unreachable:
			t.Unreachable++
		case oc.Status == StatusDecided:
			t.Decided++
			a.Note(l.Requests[i].Inst, l.Requests[i].Req, oc.Val)
		case oc.Status == StatusAbstain:
			t.Abstained++
		case oc.Status == StatusOverload:
			t.Overloaded++
		}
	}
	return t
}
