package serve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestDecisionReadableOnlyOnceFlushed drives the server's handlers and
// flush by hand (its loop idles: no client, no live peer, no TTL in
// reach): a decision taken in a turn is invisible off the loop until the
// flush has journaled it, while everything later in the same turn — a
// second submit, a peer's proposal, a peer's decision — already sees the
// instance decided and opens, journals and adopts nothing more.
func TestDecisionReadableOnlyOnceFlushed(t *testing.T) {
	s, err := Start(Config{
		Me: 0, F: 1,
		MeshAddrs:   []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:1"}, // no peer listens
		WALDir:      t.TempDir(),
		InstanceTTL: time.Hour,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()
	near, far := tcpPair(t)
	cc := newClientConn(near)

	submit := event{inst: "x", req: "r1", val: 7, cc: cc, start: time.Now()}
	s.handle(submit)
	s.handle(event{from: 1, kind: pmPropose, inst: "x", val: 5}) // the n−f = 2nd proposal: decides 5
	if val, ok := s.lookup("x"); !ok || val != 5 {
		t.Fatalf("the loop sees (%d, %v) for the instance it just decided, want (5, true)", val, ok)
	}
	if val, ok := s.read("x"); ok {
		t.Fatalf("decision %d readable off the loop before its turn was flushed", val)
	}

	submit.req = "r2"
	s.handle(submit)
	s.handle(event{from: 2, kind: pmPropose, inst: "x", val: 9})
	s.handle(event{from: 2, kind: pmDecide, inst: "x", val: 9})
	if len(s.inflight) != 0 {
		t.Fatalf("%d instances open after the decision, want none", len(s.inflight))
	}
	if len(s.recs) != 2 {
		t.Fatalf("the turn holds %d journal records, want the proposal and one decision", len(s.recs))
	}
	if msgs, err := decodeFrame(s.out[2].msgs); err != nil || len(msgs) != 2 || s.out[2].n != 2 {
		t.Fatalf("%d messages (%d counted, %v) for the late proposer, want our proposal and the one decision", len(msgs), s.out[2].n, err)
	} else if m := msgs[1]; m != (peerMsg{pmDecide, "x", 5}) {
		t.Fatalf("late proposer is told %+v, want the decision 5", m)
	}
	if st := s.Stats(); st.Decisions != 1 || st.Adopted != 0 || st.IdempotentHits != 1 || st.Submits != 2 {
		t.Fatalf("stats after the turn: %+v", st)
	}
	if val, ok := s.read("x"); ok {
		t.Fatalf("decision %d readable off the loop before its turn was flushed", val)
	}

	if s.flush() {
		t.Fatal("flush asked the loop to die")
	}
	if val, ok := s.read("x"); !ok || val != 5 {
		t.Fatalf("after the flush the instance reads (%d, %v), want (5, true)", val, ok)
	}
	if js := s.JournalStats(); js.Appends != 2 {
		t.Fatalf("%d journal records appended, want 2", js.Appends)
	}
	in := newLineScanner(far)
	for _, req := range []string{"r1", "r2"} {
		var r Response
		if !in.Scan() || parseResponse(in.Bytes(), &r) != nil || r.Req != req || r.Status != StatusDecided || r.Val != 5 {
			t.Fatalf("response %+v (%v), want %s decided 5", r, in.Err(), req)
		}
	}
}

// tcpPair returns the two ends of one loopback TCP connection, which
// close with the test.
func tcpPair(t *testing.T) (near, far net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	if near, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatalf("dial: %v", err)
	}
	if far, err = ln.Accept(); err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() {
		near.Close()
		far.Close()
	})
	return near, far
}

// TestPeerProposalShedAtFullTable drives the server's handlers by hand, as
// above, with room for one instance and a quorum no single peer completes:
// a peer's proposal for a second instance is shed. It counts as a peer
// shed, not as a client overload, and opens, journals and answers nothing.
func TestPeerProposalShedAtFullTable(t *testing.T) {
	s, err := Start(Config{
		Me: 0, F: 0,
		MeshAddrs:   []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:1"}, // no peer listens
		WALDir:      t.TempDir(),
		MaxInflight: 1,
		InstanceTTL: time.Hour,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()

	s.handle(event{from: 1, kind: pmPropose, inst: "a", val: 5}) // opens a: 2 of n−f = 3 proposals
	recs, sent := len(s.recs), s.out[2].n
	s.handle(event{from: 2, kind: pmPropose, inst: "b", val: 6})

	if st := s.Stats(); st.PeerSheds != 1 || st.Overloads != 0 || st.PeerProposes != 2 {
		t.Fatalf("stats %+v, want 1 peer shed, 0 overloads, 2 peer proposals", st)
	}
	if _, open := s.inflight["b"]; open || len(s.inflight) != 1 {
		t.Fatalf("the shed proposal opened an instance: %d in flight", len(s.inflight))
	}
	if _, known := s.proposals["b"]; known || len(s.recs) != recs || s.out[2].n != sent {
		t.Fatalf("the shed proposal left effects: proposal %v, %d journal records (was %d), %d messages to its sender (was %d)",
			known, len(s.recs), recs, s.out[2].n, sent)
	}
}

// discard is an observer that keeps nothing.
type discard struct{}

func (discard) Observe(obs.Event) {}

// TestUnobservedDecideBuildsNoEventFields drives the server's handlers by
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
			Me: 0, F: 1,
			MeshAddrs:   []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:1"}, // no peer listens
			WALDir:      t.TempDir(),
			InstanceTTL: time.Hour,
			Seed:        1,
			Observer:    o,
		})
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		defer s.Close()
		next := 0
		allocs := testing.AllocsPerRun(decides, func() {
			s.handle(event{from: 1, kind: pmPropose, inst: insts[next], val: 5})
			next++
		})
		if st := s.Stats(); st.Decisions != decides+1 {
			t.Fatalf("%d decisions over %d proposals", st.Decisions, decides+1)
		}
		return allocs
	}
	if unobserved, observed := perDecide(nil), perDecide(discard{}); unobserved >= observed {
		t.Fatalf("%.0f allocations per unobserved decide, %.0f per observed one: the field map is built for nobody",
			unobserved, observed)
	}
}

// TestDecidedProposerIsNotAnswered drives the server's handlers by hand,
// as above. A proposal goes only where it can still count. An origin's
// first proposal asks the n−f−1 peers after it in pid order and goes
// quiet to the others. A node that opens an instance on a peer's
// proposal and decides it in the same turn answers only that peer, and
// only if it asked; one still undecided proposes to every node but a
// quiet proposer. A node that has decided answers a proposer that asks
// with the decision, and a quiet one with nothing; an undecided node
// resends its proposal to a repeated plain proposal only.
func TestDecidedProposerIsNotAnswered(t *testing.T) {
	node := func(me, n, f int) *Server {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = "127.0.0.1:1" // no peer listens
		}
		addrs[me] = "127.0.0.1:0"
		s, err := Start(Config{
			Me: core.PID(me), F: f, MeshAddrs: addrs,
			WALDir: t.TempDir(), InstanceTTL: time.Hour, Seed: 1,
		})
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	cc := &clientConn{}
	submit := func(s *Server, inst string) {
		s.handle(event{inst: inst, req: "r", val: 7, cc: cc, start: time.Now()})
	}

	s := node(0, 3, 1)
	submit(s, "x") // asks n−f−1 = 1 peer
	sentKinds(t, s, 1, 0, pmPropose)
	sentKinds(t, s, 2, 0, pmProposeQuiet)

	s.handle(event{from: 1, kind: pmPropose, inst: "y", val: 3}) // opens y and decides it: n−f = 2
	sentKinds(t, s, 1, 1, pmProposeQuiet)
	sentKinds(t, s, 2, 1)
	s.handle(event{from: 2, kind: pmProposeQuiet, inst: "y", val: 4})
	sentKinds(t, s, 2, 1)
	s.handle(event{from: 2, kind: pmPropose, inst: "y", val: 4})
	sentKinds(t, s, 2, 1, pmDecide)
	if msgs, _ := decodeFrame(s.out[2].msgs); msgs[1].val != 3 {
		t.Fatalf("the undecided proposer is told %d, want the decision 3", msgs[1].val)
	}
	s.handle(event{from: 1, kind: pmProposeQuiet, inst: "w", val: 6}) // opens w and decides it
	sentKinds(t, s, 1, 1, pmProposeQuiet)
	sentKinds(t, s, 2, 1, pmDecide)
	if st := s.Stats(); st.Decisions != 2 {
		t.Fatalf("%d decisions, want y and w", st.Decisions)
	}

	s = node(0, 4, 1)
	s.handle(event{from: 1, kind: pmProposeQuiet, inst: "z", val: 5}) // opens z: 2 of n−f = 3
	sentKinds(t, s, 1, 0)
	sentKinds(t, s, 2, 0, pmPropose)
	sentKinds(t, s, 3, 0, pmPropose)
	s.handle(event{from: 1, kind: pmProposeQuiet, inst: "z", val: 5})
	sentKinds(t, s, 1, 0)
	s.handle(event{from: 1, kind: pmPropose, inst: "z", val: 5})
	sentKinds(t, s, 1, 0, pmPropose)
	s.handle(event{from: 2, kind: pmPropose, inst: "v", val: 8}) // opens v undecided: asks everyone
	sentKinds(t, s, 1, 1, pmPropose)
	sentKinds(t, s, 2, 1, pmPropose)
	sentKinds(t, s, 3, 1, pmPropose)
	submit(s, "u") // asks n−f−1 = 2 peers
	sentKinds(t, s, 1, 2, pmPropose)
	sentKinds(t, s, 2, 2, pmPropose)
	sentKinds(t, s, 3, 2, pmProposeQuiet)
	if st := s.Stats(); st.Decisions != 0 || st.PeerProposes != 4 {
		t.Fatalf("stats %+v, want no decision and 4 peer proposals", st)
	}

	s = node(2, 4, 1)
	submit(s, "t") // the peers after 2 in pid order: 3, then 0
	sentKinds(t, s, 3, 0, pmPropose)
	sentKinds(t, s, 0, 0, pmPropose)
	sentKinds(t, s, 1, 0, pmProposeQuiet)
	sentKinds(t, s, 2, 0)
}

// sentKinds checks the kinds of the messages the turn holds for peer to
// since it held from.
func sentKinds(t *testing.T, s *Server, to, from int, want ...byte) {
	t.Helper()
	msgs, _ := decodeFrame(s.out[to].msgs)
	if len(msgs) != s.out[to].n {
		t.Fatalf("node %d's outbox holds %d messages, counts %d", to, len(msgs), s.out[to].n)
	}
	if msgs = msgs[from:]; len(msgs) != len(want) {
		t.Fatalf("%d messages to node %d, want %d", len(msgs), to, len(want))
	}
	for i, m := range msgs {
		if m.kind != want[i] {
			t.Fatalf("message %d to node %d is kind %d, want %d", i, to, m.kind, want[i])
		}
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
// deciding right now, only ever see the first decided value. `make readers-race` runs it under -race -count=10.
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

// TestInlineResponseAllocatesNothing: a turn's response to an idle
// client connection is coded into the connection's lane and written by
// the loop itself, allocating nothing. The client end is read into
// a buffer made beforehand: AllocsPerRun counts the process.
func TestInlineResponseAllocatesNothing(t *testing.T) {
	s, err := Start(Config{
		Me: 0, F: 1,
		MeshAddrs:   []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:1"}, // no peer listens
		WALDir:      t.TempDir(),
		InstanceTTL: time.Hour,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()
	near, far := tcpPair(t)
	cc := newClientConn(near)
	resp := Response{Req: "r", Inst: "x", Status: StatusDecided, Val: 5, Incarnation: 1}
	line := appendResponse(nil, &resp)
	const runs = 1000 // AllocsPerRun responds once more, to warm up
	got := make([]byte, (runs+1)*len(line))
	read := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(far, got)
		read <- err
	}()
	if allocs := testing.AllocsPerRun(runs, func() {
		s.respond(cc, time.Now(), resp)
		s.release()
		s.turn.reset()
	}); allocs != 0 {
		t.Fatalf("an inline response write allocates %.1f objects, want 0", allocs)
	}
	if err := <-read; err != nil {
		t.Fatalf("read: %v", err)
	}
	if want := bytes.Repeat(line, runs+1); !bytes.Equal(got, want) {
		t.Fatalf("the client read %q..., want %d copies of %q", got[:min(len(got), 2*len(line))], runs+1, line)
	}
}
