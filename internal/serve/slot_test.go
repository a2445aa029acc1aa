package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netsub"
	"repro/internal/obs/hist"
)

// bareServer is a server's state with no loop or journal, and a mesh node
// that reaches no peer, so it hears none: a test plays the shard loops by
// calling the handlers itself.
func bareServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.WALDir = "unused"
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	s := newServer(cfg, &JournalState{Decisions: map[string]int{}, Proposals: map[string]int{}})
	addrs := make([]string, cfg.N)
	for i := range addrs {
		addrs[i] = "127.0.0.1:1" // no peer listens
	}
	addrs[cfg.Me] = "127.0.0.1:0"
	nd, err := netsub.Start(netsub.Config{Me: cfg.Me, N: cfg.N, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	// Each peer's dial is refused, now and at every redial: the mesh
	// hears nobody.
	for nd.Stats().DialFailures < int64(cfg.N-1) {
		time.Sleep(time.Millisecond)
	}
	s.node = nd
	return s
}

// idsOn returns count instance ids, each owned by shard i of s.
func idsOn(s *Server, i, count int) []string {
	var ids []string
	for k := 0; len(ids) < count; k++ {
		if id := fmt.Sprintf("i%d", k); s.shardOf(id) == i {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestAdmissionNeverOvershoots: shard loops that admit at once cannot
// together pass the in-flight bound. One goroutine per shard plays its
// loop, and in each round all of them submit a fresh instance at the same
// instant under MaxInflight 1: exactly one opens, the others are shed, and
// serve_inflight_depth never records more than 1. `make readers-race` runs
// it at -cpu 1,4.
func TestAdmissionNeverOvershoots(t *testing.T) {
	const shards, rounds = 4, 500
	reg := hist.NewRegistry()
	s := bareServer(t, Config{Me: 0, N: 3, F: 1, Shards: shards, MaxInflight: 1, InstanceTTL: time.Hour, Hist: reg})
	ids := make([][]string, shards)
	for i := range ids {
		ids[i] = idsOn(s, i, rounds)
	}
	for r := 0; r < rounds; r++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < shards; i++ {
			wg.Add(1)
			go func(t *shardTable, id string) {
				defer wg.Done()
				<-start
				s.handle(t, event{inst: id, req: "r", val: 1, start: time.Now()})
			}(&s.sh[i], ids[i][r])
		}
		close(start)
		wg.Wait()
		open := 0
		for i := range s.sh {
			t := &s.sh[i]
			for _, ins := range t.inflight {
				s.settle(t, ins)
				open++
			}
			t.reset()
		}
		if open != 1 || s.inflightN.Load() != 0 {
			t.Fatalf("round %d: %d instances opened under MaxInflight 1 (%d still counted)", r, open, s.inflightN.Load())
		}
	}
	if d := reg.Get("serve_inflight_depth").Snapshot(); d.Max > 1 || d.Count != rounds {
		t.Fatalf("serve_inflight_depth: max %d over %d opens, want at most 1 over %d", d.Max, d.Count, rounds)
	}
	if st := s.Stats(); st.Overloads != (shards-1)*rounds {
		t.Fatalf("%d submits shed, want %d", st.Overloads, (shards-1)*rounds)
	}
}

// TestStaleDeadlineSparesReusedSlot: an instance decides and frees its
// record, which the next instance takes over, under a waiter with the same
// request ID and a far deadline. The old instance's request deadline and
// TTL come due while the new tenant is still open: both are dead, and
// neither abstains its waiter nor evicts it.
func TestStaleDeadlineSparesReusedSlot(t *testing.T) {
	const ttl = 10 * time.Second
	s := bareServer(t, Config{Me: 0, N: 3, F: 1, Shards: 1, InstanceTTL: ttl})
	tb := &s.sh[0]
	tb.due = make(deadlines, 0, 8) // room: no sweep drops the stale entries before they fall due

	s.handle(tb, event{inst: "old", req: "r", val: 1, timeout: 50, start: time.Now()})
	old := tb.inflight["old"]
	opened := old.start
	s.handle(tb, event{kind: pmPropose, from: 1, inst: "old", val: 2}) // n−f = 2: decides
	if _, ok := tb.lookup("old"); !ok || len(tb.inflight) != 0 {
		t.Fatal("the first instance did not decide")
	}
	tb.reset()

	time.Sleep(5 * time.Millisecond) // the new tenant's TTL falls due after the old one's
	s.handle(tb, event{inst: "new", req: "r", val: 3, timeout: int(time.Hour / time.Millisecond), start: time.Now()})
	ins := tb.inflight["new"]
	if ins != old {
		t.Fatal("the new instance did not take over the freed record")
	}
	s.expire(tb, opened.Add(ttl+time.Millisecond))
	if len(tb.acks) != 0 || s.Stats().Abstains != 0 || s.Stats().Evictions != 0 {
		t.Fatalf("the old instance's deadlines touched the new tenant: %d responses, %+v", len(tb.acks), s.Stats())
	}
	if tb.inflight["new"] != ins || ins.waiting("r") < 0 {
		t.Fatal("the new tenant lost its instance or its waiter")
	}
	// Its own deadlines still hold: the TTL evicts it, abstaining the waiter.
	s.expire(tb, ins.start.Add(ttl))
	if len(tb.acks) != 1 || tb.acks[0].resp.Status != StatusAbstain || len(tb.inflight) != 0 {
		t.Fatalf("at its own TTL: %d responses, %d instances open", len(tb.acks), len(tb.inflight))
	}
}

// TestOpenInstanceAllocatesNothing: on a warm shard an instance's whole
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
	s := bareServer(t, Config{Me: 0, N: 3, F: 1, Shards: 1, InstanceTTL: time.Hour})
	tb := &s.sh[0]
	ids := idsOn(s, 0, 2*runs+2) // AllocsPerRun runs once more, to warm up
	next := 0
	cycle := func() {
		id := ids[next]
		next++
		s.handle(tb, event{inst: id, req: id, val: 1000 + next, start: time.Now()})
		s.handle(tb, event{kind: pmPropose, from: 1, inst: id, val: 2000})
		tb.reset()
	}
	for range runs {
		cycle() // warm the shard: the heap, the maps and the turn's buffers at size
	}
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Fatalf("an instance's life allocates %.1f objects on a warm shard, want 0", allocs)
	}
	if st := s.Stats(); st.Decisions != int64(next) || len(tb.inflight) != 0 || len(tb.free) != 1 {
		t.Fatalf("%d decisions over %d instances, %d open, %d records free", st.Decisions, next, len(tb.inflight), len(tb.free))
	}
}

// TestDeliveredFrameAllocatesOnlyItsID: a mesh frame handed to deliver —
// one message or a batch — is read where the reader holds it, and each
// message reaches its shard's queue by value: the one allocation per
// message is its instance id, which the event keeps.
func TestDeliveredFrameAllocatesOnlyItsID(t *testing.T) {
	if raceDetector {
		t.Skip("allocation pin: the race detector allocates")
	}
	const runs = 200
	s := bareServer(t, Config{Me: 0, N: 3, F: 1, Shards: 1})
	msg := appendPeerMsg(nil, pmPropose, "an-instance", 1000)
	one, _ := netsub.AppendValue(nil, msg)
	two, _ := netsub.AppendValue(nil, appendPeerBatch(nil, [][]byte{msg, msg}))
	for _, c := range []struct {
		name    string
		payload []byte
		msgs    float64
	}{{"message", one, 1}, {"batch", two, 2}} {
		if allocs := testing.AllocsPerRun(runs, func() { s.deliver(2, c.payload) }); allocs > c.msgs {
			t.Errorf("a delivered %s allocates %.1f objects, want at most %.0f (the ids)", c.name, allocs, c.msgs)
		}
		for range int(c.msgs) * (runs + 1) {
			if ev := <-s.ev[0]; ev != (event{kind: pmPropose, from: 2, inst: "an-instance", val: 1000}) {
				t.Fatalf("posted %+v", ev)
			}
		}
	}
}
