package serve

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsub"
	"repro/internal/obs/hist"
	"repro/internal/wal"
)

// bareServer is the state of a server in a mesh of n, with no loop or
// journal, and a mesh node that reaches no peer, so it hears none: a test
// plays the loop by calling the handlers itself.
func bareServer(t *testing.T, n int, cfg Config) *Server {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:1" // no peer listens
	}
	addrs[cfg.Me] = "127.0.0.1:0"
	cfg.MeshAddrs, cfg.WALDir = addrs, "unused"
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	s := newServer(cfg, &JournalState{Decisions: map[string]int{}, Proposals: map[string]int{}})
	nd, err := netsub.Start(netsub.Config{Me: cfg.Me, N: n, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	// Each peer's dial is refused, now and at every redial: the mesh
	// hears nobody.
	for nd.Stats().DialFailures < int64(n-1) {
		time.Sleep(time.Millisecond)
	}
	s.node = nd
	return s
}

// TestOneTurnOneCommitOneFramePerPeer: two fresh submits queued before the
// loop's first turn are one turn. Their two proposal records leave in one
// journal commit, and their proposals in one frame to each peer, whatever
// their ids.
func TestOneTurnOneCommitOneFramePerPeer(t *testing.T) {
	reg := hist.NewRegistry()
	s := bareServer(t, 3, Config{Me: 0, F: 1, InstanceTTL: time.Hour, Hist: reg})
	log, _, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.group = wal.NewGroup(log, wal.GroupOptions{})
	near, _ := tcpPair(t)
	cc := newClientConn(near)
	for _, id := range []string{"a", "b"} {
		s.ev <- event{inst: id, req: id, val: 1, cc: cc, start: time.Now()}
	}
	t.Cleanup(func() {
		s.group.Close()
		log.Close()
	})
	stop := sync.OnceFunc(func() {
		close(s.done)
		s.wg.Wait()
	})
	t.Cleanup(stop)
	s.wg.Add(1)
	go s.loop()

	// The loop's first turn sends a frame to each peer last; stopped after
	// it, the loop has taken no other turn.
	waitFor(t, "the turn's frames", func() bool { ms := s.Mesh().Stats(); return ms.FramesSent+ms.Sheds >= 2 })
	stop()
	if js := s.JournalStats(); js.Appends != 2 || js.Batches != 1 {
		t.Fatalf("%d records in %d journal commits, want 2 in 1", js.Appends, js.Batches)
	}
	if ms := s.Mesh().Stats(); ms.FramesSent != 2 || ms.Sheds != 0 {
		t.Fatalf("%d frames sent and %d shed to 2 peers, want 2 and 0", ms.FramesSent, ms.Sheds)
	}
	if b := reg.Get("serve_bcast_batch").Snapshot(); b.Count != 2 || b.Sum != 4 {
		t.Fatalf("%d frames carried %d messages, want 2 frames of 2", b.Count, b.Sum)
	}
}

// TestHedgeBurstFitsItsFrames: 300 fresh instances whose ids are close to
// the longest a client may name hedge at the same instant. A turn serves
// at most maxTurnEvents of the due hedges and the loop takes the rest in
// the turns after it, so every frame a turn builds fits a mesh frame and
// the mesh takes it: no proposal is lost to a frame refused whole.
func TestHedgeBurstFitsItsFrames(t *testing.T) {
	const instances, idLen = 300, 4000
	reg := hist.NewRegistry()
	s := bareServer(t, 3, Config{Me: 0, F: 1, RequestTimeout: 1600 * time.Millisecond, InstanceTTL: time.Hour, Hist: reg})
	log, _, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.group = wal.NewGroup(log, wal.GroupOptions{})
	t.Cleanup(func() {
		s.group.Close()
		log.Close()
	})
	// One start: every hedge falls due RequestTimeout/8 after it, long
	// after the loop has opened the instances. No request deadline or TTL
	// falls due during the test, and no instance decides: nobody answers.
	start := time.Now()
	for i := range instances {
		id := fmt.Sprintf("%0*d", idLen, i)
		s.ev <- event{inst: id, req: id, val: i, timeout: int(time.Hour / time.Millisecond), start: start}
	}
	stop := sync.OnceFunc(func() {
		close(s.done)
		s.wg.Wait()
	})
	t.Cleanup(stop)
	s.wg.Add(1)
	go s.loop()

	waitFor(t, "every hedge", func() bool { return s.Stats().Hedges == instances })
	stop() // the loop stops between turns: the last hedge's frames are sent
	b := reg.Get("serve_bcast_batch").Snapshot()
	if b.Sum != 2*2*instances || b.Max > maxTurnEvents {
		t.Fatalf("%d frames carried %d messages, at most %d a frame; want %d in all, at most %d a frame",
			b.Count, b.Sum, b.Max, 2*2*instances, maxTurnEvents)
	}
	if ms := s.Mesh().Stats(); ms.FramesSent+ms.Sheds != b.Count {
		t.Fatalf("of %d frames built the mesh took %d and shed %d: the rest were refused", b.Count, ms.FramesSent, ms.Sheds)
	}
}

// TestTurnFramesFitMeshFrames pins the bound maxTurnEvents gives a turn's
// frame to a peer: each event or live deadline adds at most one message,
// and maxTurnEvents of the longest message fit netsub.MaxFramePayload.
func TestTurnFramesFitMeshFrames(t *testing.T) {
	longest := appendPeerMsg(nil, pmPropose, strings.Repeat("x", maxInstanceID), math.MinInt)
	if size := maxTurnEvents * len(longest); size > netsub.MaxFramePayload {
		t.Fatalf("a turn's frame may carry %d × %d bytes = %d, past netsub.MaxFramePayload %d",
			maxTurnEvents, len(longest), size, netsub.MaxFramePayload)
	}
}

// TestAdmissionNeverOvershoots: the in-flight bound is the size of the
// loop's table. Clients on connections of their own, each read by its own
// goroutine, submit fresh instances at once to a node that hears no peer,
// so nothing decides and nothing admitted leaves before its TTL: exactly
// MaxInflight instances open, their requests abstaining at their deadline,
// every other submit is shed at the full table, and serve_inflight_depth
// never records more than MaxInflight. `make readers-race` runs it at
// -cpu 1,4.
func TestAdmissionNeverOvershoots(t *testing.T) {
	const max, clients = 4, 16
	reg := hist.NewRegistry()
	s, err := Start(Config{
		Me: 0, F: 1,
		MeshAddrs:   []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:1"}, // no peer listens
		WALDir:      t.TempDir(),
		MaxInflight: max,
		InstanceTTL: time.Hour,
		Seed:        1,
		Hist:        reg,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()
	answers := make(chan Response, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient(ClientConfig{Addr: s.ClientAddr(), Timeout: 100 * time.Millisecond, MaxAttempts: 1, Seed: int64(i)})
			defer c.Close()
			<-start
			resp, err := c.Submit(fmt.Sprintf("i%d", i), "r", i)
			if err != nil {
				t.Error(err)
			}
			answers <- resp
		}()
	}
	close(start)
	wg.Wait()
	close(answers)
	abstained, shed := 0, 0
	for r := range answers {
		switch {
		case r.Status == StatusAbstain:
			abstained++
		case r.Status == StatusOverload && r.Inflight == max && r.Max == max:
			shed++
		default:
			t.Errorf("answered %+v", r)
		}
	}
	if abstained != max || shed != clients-max {
		t.Fatalf("%d submits admitted and %d shed under MaxInflight %d, want %d and %d", abstained, shed, max, max, clients-max)
	}
	if d := reg.Get("serve_inflight_depth").Snapshot(); d.Max != max || d.Count != max {
		t.Fatalf("serve_inflight_depth: max %d over %d opens, want %d over %d", d.Max, d.Count, max, max)
	}
	if st := s.Stats(); st.Overloads != clients-max {
		t.Fatalf("%d submits counted shed, want %d", st.Overloads, clients-max)
	}
}

// TestStaleDeadlineSparesReusedSlot: an instance decides and frees its
// record, which the next instance takes over, under a waiter with the same
// request ID and a far deadline. The old instance's request deadline and
// TTL come due while the new tenant is still open: both are dead, and
// neither abstains its waiter nor evicts it.
func TestStaleDeadlineSparesReusedSlot(t *testing.T) {
	const ttl = 10 * time.Second
	s := bareServer(t, 3, Config{Me: 0, F: 1, InstanceTTL: ttl})
	s.due = make(deadlines, 0, 8) // room: no sweep drops the stale entries before they fall due

	s.handle(event{inst: "old", req: "r", val: 1, timeout: 50, start: time.Now()})
	old := s.inflight["old"]
	opened := old.start
	s.handle(event{kind: pmPropose, from: 1, inst: "old", val: 2}) // n−f = 2: decides
	if _, ok := s.lookup("old"); !ok || len(s.inflight) != 0 {
		t.Fatal("the first instance did not decide")
	}
	s.turn.reset()

	time.Sleep(5 * time.Millisecond) // the new tenant's TTL falls due after the old one's
	s.handle(event{inst: "new", req: "r", val: 3, timeout: int(time.Hour / time.Millisecond), start: time.Now()})
	ins := s.inflight["new"]
	if ins != old {
		t.Fatal("the new instance did not take over the freed record")
	}
	s.expire(opened.Add(ttl + time.Millisecond))
	if len(s.acks) != 0 || s.Stats().Abstains != 0 || s.Stats().Evictions != 0 {
		t.Fatalf("the old instance's deadlines touched the new tenant: %d responses, %+v", len(s.acks), s.Stats())
	}
	if s.inflight["new"] != ins || ins.waiting("r") < 0 {
		t.Fatal("the new tenant lost its instance or its waiter")
	}
	// Its own deadlines still hold: the TTL evicts it, abstaining the waiter.
	s.expire(ins.start.Add(ttl))
	if len(s.acks) != 1 || s.acks[0].resp.Status != StatusAbstain || len(s.inflight) != 0 {
		t.Fatalf("at its own TTL: %d responses, %d instances open", len(s.acks), len(s.inflight))
	}
}

// TestOpenInstanceAllocatesNothing: on a warm server an instance's whole
// life — a submit opens it (journaled proposal, waiter, two deadlines,
// proposals to both peers), a peer's proposal decides it (journaled
// decision, response), and the turn resets — allocates nothing: the record,
// its view and its waiters are recycled, the heap is typed, and the journal
// payloads and peer messages are slices of the turn's own buffers.
func TestOpenInstanceAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation pin: the race detector allocates")
	}
	const runs = 1000
	s := bareServer(t, 3, Config{Me: 0, F: 1, InstanceTTL: time.Hour})
	ids := make([]string, 2*runs+2) // AllocsPerRun runs once more, to warm up
	for i := range ids {
		ids[i] = fmt.Sprintf("i%d", i)
	}
	next := 0
	cycle := func() {
		id := ids[next]
		next++
		s.handle(event{inst: id, req: id, val: 1000 + next, start: time.Now()})
		s.handle(event{kind: pmPropose, from: 1, inst: id, val: 2000})
		s.turn.reset()
	}
	for range runs {
		cycle() // warm the table: the heap, the maps and the turn's buffers at size
	}
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Fatalf("an instance's life allocates %.1f objects on a warm server, want 0", allocs)
	}
	if st := s.Stats(); st.Decisions != int64(next) || len(s.inflight) != 0 || len(s.free) != 1 {
		t.Fatalf("%d decisions over %d instances, %d open, %d records free", st.Decisions, next, len(s.inflight), len(s.free))
	}
}

// TestDeliveredFrameAllocatesOnlyItsID: a mesh frame handed to deliver —
// one message or several — is read where the reader holds it, and each
// message reaches the loop's queue by value: the one allocation per
// message is its instance id, which the event keeps.
func TestDeliveredFrameAllocatesOnlyItsID(t *testing.T) {
	if raceDetector {
		t.Skip("allocation pin: the race detector allocates")
	}
	const runs = 200
	s := bareServer(t, 3, Config{Me: 0, F: 1})
	one := appendPeerMsg(nil, pmPropose, "an-instance", 1000)
	three := append(append(bytes.Clone(one), one...), one...)
	for _, c := range []struct {
		name    string
		payload []byte
		msgs    float64
	}{{"message", one, 1}, {"frame of three", three, 3}} {
		if allocs := testing.AllocsPerRun(runs, func() { s.deliver(2, c.payload) }); allocs > c.msgs {
			t.Errorf("a delivered %s allocates %.1f objects, want at most %.0f (the ids)", c.name, allocs, c.msgs)
		}
		for range int(c.msgs) * (runs + 1) {
			if ev := <-s.ev; ev != (event{kind: pmPropose, from: 2, inst: "an-instance", val: 1000}) {
				t.Fatalf("posted %+v", ev)
			}
		}
	}
}
