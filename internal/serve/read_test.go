package serve

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestDecisionReadableOnlyOnceFlushed drives one shard's handlers and
// flush by hand (its loop idles: no client, no live peer, no TTL in
// reach): a decision taken in a turn is invisible off the loop until the
// flush has journaled it, while everything later in the same turn — a
// second submit, a peer's proposal, a peer's decision — already sees the
// instance decided and opens, journals and adopts nothing more.
func TestDecisionReadableOnlyOnceFlushed(t *testing.T) {
	s, err := Start(Config{
		Me: 0, N: 3, F: 1,
		MeshAddrs:   []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:1"}, // no peer listens
		WALDir:      t.TempDir(),
		Shards:      1,
		InstanceTTL: time.Hour,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	cc := &clientConn{c: near, out: make(chan Response, 8), dead: make(chan struct{})}
	tb := &s.sh[0]

	submit := submitEv{req: Request{Op: "submit", Inst: "x", Req: "r1", Val: 7}, cc: cc, start: time.Now()}
	s.handle(tb, submit)
	s.handle(tb, peerEv{from: 1, kind: pmPropose, inst: "x", val: 5}) // the n−f = 2nd proposal: decides 5
	if val, ok := tb.lookup("x"); !ok || val != 5 {
		t.Fatalf("the loop sees (%d, %v) for the instance it just decided, want (5, true)", val, ok)
	}
	if val, ok := tb.read("x"); ok {
		t.Fatalf("decision %d readable off the loop before its turn was flushed", val)
	}

	submit.req.Req = "r2"
	s.handle(tb, submit)
	s.handle(tb, peerEv{from: 2, kind: pmPropose, inst: "x", val: 9})
	s.handle(tb, peerEv{from: 2, kind: pmDecide, inst: "x", val: 9})
	if len(tb.inflight) != 0 {
		t.Fatalf("%d instances open after the decision, want none", len(tb.inflight))
	}
	if len(tb.recs) != 2 {
		t.Fatalf("the turn holds %d journal records, want the proposal and one decision", len(tb.recs))
	}
	if len(tb.out[2]) != 2 {
		t.Fatalf("%d messages for the late proposer, want our proposal and the one decision", len(tb.out[2]))
	} else if kind, inst, val, err := decodePeerMsg(tb.out[2][1]); err != nil || kind != pmDecide || inst != "x" || val != 5 {
		t.Fatalf("late proposer is told (%d, %q, %d, %v), want the decision 5", kind, inst, val, err)
	}
	if st := s.Stats(); st.Decisions != 1 || st.Adopted != 0 || st.IdempotentHits != 1 || st.Submits != 2 {
		t.Fatalf("stats after the turn: %+v", st)
	}
	if val, ok := tb.read("x"); ok {
		t.Fatalf("decision %d readable off the loop before its turn was flushed", val)
	}

	if s.flush(tb) {
		t.Fatal("flush asked the loop to die")
	}
	if val, ok := tb.read("x"); !ok || val != 5 {
		t.Fatalf("after the flush the instance reads (%d, %v), want (5, true)", val, ok)
	}
	if js := s.JournalStats(); js.Appends != 2 {
		t.Fatalf("%d journal records appended, want 2", js.Appends)
	}
	for _, req := range []string{"r1", "r2"} {
		if r := <-cc.out; r.Req != req || r.Status != StatusDecided || r.Val != 5 {
			t.Fatalf("response %+v, want %s decided 5", r, req)
		}
	}
}

// TestPeerProposalShedAtFullTable drives one shard's handlers by hand, as
// above, with room for one instance and a quorum no single peer completes:
// a peer's proposal for a second instance is shed. It counts as a peer
// shed, not as a client overload, and opens, journals and answers nothing.
func TestPeerProposalShedAtFullTable(t *testing.T) {
	s, err := Start(Config{
		Me: 0, N: 3, F: 0,
		MeshAddrs:   []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:1"}, // no peer listens
		WALDir:      t.TempDir(),
		Shards:      1,
		MaxInflight: 1,
		InstanceTTL: time.Hour,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()
	tb := &s.sh[0]

	s.handle(tb, peerEv{from: 1, kind: pmPropose, inst: "a", val: 5}) // opens a: 2 of n−f = 3 proposals
	recs, sent := len(tb.recs), len(tb.out[2])
	s.handle(tb, peerEv{from: 2, kind: pmPropose, inst: "b", val: 6})

	if st := s.Stats(); st.PeerSheds != 1 || st.Overloads != 0 || st.PeerProposes != 2 {
		t.Fatalf("stats %+v, want 1 peer shed, 0 overloads, 2 peer proposals", st)
	}
	if _, open := tb.inflight["b"]; open || len(tb.inflight) != 1 {
		t.Fatalf("the shed proposal opened an instance: %d in flight", len(tb.inflight))
	}
	if _, known := tb.proposals["b"]; known || len(tb.recs) != recs || len(tb.out[2]) != sent {
		t.Fatalf("the shed proposal left effects: proposal %v, %d journal records (was %d), %d messages to its sender (was %d)",
			known, len(tb.recs), recs, len(tb.out[2]), sent)
	}
}

// TestUnobservedDecideBuildsNoEventFields drives one shard's handlers by
// hand, as above: each peer proposal for a fresh instance opens it and
// decides it (n−f = 2: the proposal and our own). With no Observer the
// decide builds no field map for the serve.decide event nobody receives, so
// the same turn under an observer that discards everything allocates more.
func TestUnobservedDecideBuildsNoEventFields(t *testing.T) {
	const decides = 200
	insts := make([]string, decides+1) // AllocsPerRun warms up with one extra call
	for i := range insts {
		insts[i] = fmt.Sprintf("i%d", i)
	}
	perDecide := func(o obs.Observer) float64 {
		s, err := Start(Config{
			Me: 0, N: 3, F: 1,
			MeshAddrs:   []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:1"}, // no peer listens
			WALDir:      t.TempDir(),
			Shards:      1,
			InstanceTTL: time.Hour,
			Seed:        1,
			Observer:    o,
		})
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		defer s.Close()
		tb, next := &s.sh[0], 0
		allocs := testing.AllocsPerRun(decides, func() {
			s.handle(tb, peerEv{from: 1, kind: pmPropose, inst: insts[next], val: 5})
			next++
		})
		if st := s.Stats(); st.Decisions != decides+1 {
			t.Fatalf("%d decisions over %d proposals", st.Decisions, decides+1)
		}
		return allocs
	}
	if unobserved, observed := perDecide(nil), perDecide(obs.Base{}); unobserved >= observed {
		t.Fatalf("%.0f allocations per unobserved decide, %.0f per observed one: the field map is built for nobody",
			unobserved, observed)
	}
}

// TestReadYourWrites: once a client holds the ack for an instance, a
// query to the same node — on that connection or any other — answers
// decided, never unknown: flush publishes before it acknowledges.
func TestReadYourWrites(t *testing.T) {
	cl := fastCluster(t, nil)
	writer, other := clientOf(cl, 0), clientOf(cl, 0)
	defer writer.Close()
	defer other.Close()
	for i := 0; i < 200; i++ {
		inst := fmt.Sprintf("ryw-%d", i)
		want := mustDecide(t, writer, inst, "r", i).Val
		for _, c := range []*Client{writer, other} {
			if q, err := c.Query(inst); err != nil || q.Status != StatusDecided || q.Val != want {
				t.Fatalf("%s queried after its ack: %+v, %v; want decided %d", inst, q, err, want)
			}
		}
	}
}

// TestConcurrentReaders: connections re-submitting and querying a hot set
// of decided instances, and racing queries at instances other clients are
// deciding right now in the same shards, only ever see the first decided
// value. `make readers-race` runs it under -race -count=10.
func TestConcurrentReaders(t *testing.T) {
	cl := fastCluster(t, nil)
	seed := clientOf(cl, 0)
	defer seed.Close()
	const hot, readers, writers, fresh = 16, 4, 2, 40
	first := make([]int, hot)
	for i := range first {
		first[i] = mustDecide(t, seed, fmt.Sprintf("hot-%d", i), "r", 100+i).Val
	}
	before := cl.Servers[0].Stats()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clientOf(cl, w%2) // one writer shares the readers' node
			defer c.Close()
			for i := 0; i < fresh; i++ {
				inst, val := fmt.Sprintf("fresh-%d-%d", w, i), w*1000+i
				if resp, err := c.Submit(inst, "r", val); err != nil || resp.Status != StatusDecided || resp.Val != val {
					t.Errorf("%s: %+v, %v; want decided %d", inst, resp, err, val)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := clientOf(cl, 0)
			defer c.Close()
			for i := 0; i < 3*fresh; i++ {
				h := (r + i) % hot
				resp, err := c.Submit(fmt.Sprintf("hot-%d", h), fmt.Sprintf("again-%d", r), -1)
				if err != nil || resp.Status != StatusDecided || resp.Val != first[h] {
					t.Errorf("re-submit of hot-%d: %+v, %v; want decided %d", h, resp, err, first[h])
					return
				}
				if resp, err = c.Query(fmt.Sprintf("hot-%d", h)); err != nil || resp.Status != StatusDecided || resp.Val != first[h] {
					t.Errorf("query of hot-%d: %+v, %v; want decided %d", h, resp, err, first[h])
					return
				}
				w, j := i%writers, i%fresh
				resp, err = c.Query(fmt.Sprintf("fresh-%d-%d", w, j))
				if err != nil || resp.Status != StatusUnknown && (resp.Status != StatusDecided || resp.Val != w*1000+j) {
					t.Errorf("query of fresh-%d-%d: %+v, %v; want unknown or decided %d", w, j, resp, err, w*1000+j)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// The counters count what they always counted, whichever goroutine
	// answered: node 0 saw every re-submit as an idempotent hit and two
	// queries per reader iteration.
	st := cl.Servers[0].Stats()
	if got, want := st.IdempotentHits-before.IdempotentHits, int64(readers*3*fresh); got != want {
		t.Errorf("idempotent hits %d, want %d", got, want)
	}
	if got, want := st.Submits-before.Submits, int64(readers*3*fresh+fresh); got != want {
		t.Errorf("submits %d, want %d", got, want)
	}
	if got, want := st.Queries-before.Queries, int64(2*readers*3*fresh); got != want {
		t.Errorf("queries %d, want %d", got, want)
	}
}
