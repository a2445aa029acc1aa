package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

func testCluster(t *testing.T, n, f int, tune func(i int, cfg *Config)) *Cluster {
	t.Helper()
	cl, err := StartCluster(ClusterConfig{
		N: n, F: f, K: f + 1,
		Dir:            t.TempDir(),
		Sync:           wal.SyncAlways,
		RequestTimeout: 2 * time.Second,
		Seed:           1,
		Tune:           tune,
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func mustDecide(t *testing.T, c *Client, inst, req string, val int) Response {
	t.Helper()
	resp, err := c.Submit(inst, req, val)
	if err != nil {
		t.Fatalf("Submit(%s,%s,%d): %v", inst, req, val, err)
	}
	if resp.Status != StatusDecided {
		t.Fatalf("Submit(%s,%s,%d): status %s, want decided (resp %+v)", inst, req, val, resp.Status, resp)
	}
	return resp
}

func TestWireRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		kind byte
		inst string
		val  int
	}{
		{pmPropose, "i0", 0},
		{pmDecide, "instance-with-a-longer-name", -12345},
		{pmPropose, "x", 1 << 40},
		{pmProposeQuiet, "decided-here", -1},
	} {
		b := appendPeerMsg(nil, tc.kind, tc.inst, tc.val)
		kind, inst, val, rest, err := decodePeerMsg(b)
		if err != nil {
			t.Fatalf("decodePeerMsg(%v): %v", tc, err)
		}
		if kind != tc.kind || inst != tc.inst || val != tc.val || len(rest) != 0 {
			t.Fatalf("peer round trip: got (%d,%q,%d) and %d bytes more, want (%d,%q,%d)", kind, inst, val, len(rest), tc.kind, tc.inst, tc.val)
		}
		p := appendInstVal(nil, tc.inst, tc.val)
		inst, val, err = decodeInstValRecord(p)
		if err != nil || inst != tc.inst || val != tc.val {
			t.Fatalf("journal round trip: got (%q,%d,%v)", inst, val, err)
		}
	}
	for _, bad := range [][]byte{nil, {}, {9, 1, 'x', 0}, {pmPropose}, {3, 1, 'x', 0}} {
		if _, _, _, _, err := decodePeerMsg(bad); err == nil {
			t.Fatalf("decodePeerMsg(%v) accepted garbage", bad)
		}
	}
}

func TestSingleNodeDecideAndIdempotentRetry(t *testing.T) {
	cl := testCluster(t, 1, 0, nil)
	c := NewClient(ClientConfig{Addr: cl.ClientAddrs()[0], Timeout: 2 * time.Second, Seed: 1})
	defer c.Close()

	resp := mustDecide(t, c, "job-1", "r1", 42)
	if resp.Val != 42 {
		t.Fatalf("decided %d, want 42", resp.Val)
	}
	// The same request ID retried must return the same decision, and a
	// different value under the same instance must not re-decide.
	for _, val := range []int{42, 7} {
		again := mustDecide(t, c, "job-1", "r1", val)
		if again.Val != 42 {
			t.Fatalf("retry decided %d, want 42", again.Val)
		}
	}
	st := cl.Servers[0].Stats()
	if st.Decisions != 1 {
		t.Fatalf("decisions = %d, want exactly 1 despite retries", st.Decisions)
	}
	if st.IdempotentHits < 2 {
		t.Fatalf("idempotent hits = %d, want >= 2", st.IdempotentHits)
	}
	q, err := c.Query("job-1")
	if err != nil || q.Status != StatusDecided || q.Val != 42 {
		t.Fatalf("query: %+v, %v", q, err)
	}
	if q, _ := c.Query("nope"); q.Status != StatusUnknown {
		t.Fatalf("query unknown instance: %+v", q)
	}
}

// TestLongInstanceIDIsRefused: a submit naming an instance id longer than
// the journal's record format holds is answered StatusError by the
// connection's reader, before the loop could journal it; the node still
// restarts from its journal and serves.
func TestLongInstanceIDIsRefused(t *testing.T) {
	cl := testCluster(t, 1, 0, nil)
	c := NewClient(ClientConfig{Addr: cl.ClientAddrs()[0], Timeout: 2 * time.Second, Seed: 1})
	defer c.Close()
	long := strings.Repeat("x", maxInstanceID+1)
	if resp, err := c.Submit(long, "r1", 1); err == nil || resp.Status != StatusError {
		t.Fatalf("a %d-byte instance id got %s (%v); want StatusError", len(long), resp.Status, err)
	}
	mustDecide(t, c, "short", "r2", 2)
	cl.Servers[0].Kill()
	if _, err := cl.Restart(0, nil); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	c.dropConn()
	if q, err := c.Query("short"); err != nil || q.Status != StatusDecided || q.Val != 2 {
		t.Fatalf("restarted node answers %+v, %v; want short decided 2", q, err)
	}
	mustDecide(t, c, "after", "r3", 3)
}

func TestClusterDecidesWithinKBound(t *testing.T) {
	const n, f = 3, 1
	cl := testCluster(t, n, f, nil)
	vals := map[int]bool{10: true, 20: true, 30: true}
	decided := map[int]bool{}
	for i := 0; i < n; i++ {
		c := NewClient(ClientConfig{Addr: cl.ClientAddrs()[i], Timeout: 2 * time.Second, Seed: int64(i)})
		resp := mustDecide(t, c, "shared", "cl-"+string(rune('a'+i)), 10*(i+1))
		if !vals[resp.Val] {
			t.Fatalf("validity violated: node %d decided %d, not a submitted value", i, resp.Val)
		}
		decided[resp.Val] = true
		c.Close()
	}
	if len(decided) > f+1 {
		t.Fatalf("k-agreement violated: %d distinct decisions > k=%d", len(decided), f+1)
	}
}

// TestOverloadDeadlineAndTTL runs one node of a 2-mesh whose peer never
// starts: no instance can gather the n−f=2 quorum, so the in-flight
// table fills (overload), deadlines degrade to abstain, and the TTL
// evicts — the three defense layers in one run.
func TestOverloadDeadlineAndTTL(t *testing.T) {
	m := obs.NewMetrics()
	s, err := Start(Config{
		Me: 0, F: 0,
		MeshAddrs:      []string{"127.0.0.1:0", "127.0.0.1:1"}, // peer 1 never listens
		WALDir:         t.TempDir(),
		MaxInflight:    2,
		RequestTimeout: 150 * time.Millisecond,
		InstanceTTL:    time.Second,
		Seed:           1,
		Observer:       m,
		Hist:           m.Hist(),
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()

	// The client's 200ms Timeout is forwarded as the server-side request
	// deadline, so both abstains land well inside the 1s instance TTL.
	c := NewClient(ClientConfig{Addr: s.ClientAddr(), Timeout: 200 * time.Millisecond, MaxAttempts: 1, Seed: 1})
	defer c.Close()

	for i, inst := range []string{"a", "b"} {
		resp, err := c.Submit(inst, "r", i)
		if err != nil {
			t.Fatalf("submit %s: %v", inst, err)
		}
		if resp.Status != StatusAbstain {
			t.Fatalf("submit %s: status %s, want abstain", inst, resp.Status)
		}
		if resp.Gathered != 1 || resp.Need != 2 {
			t.Fatalf("abstain report: gathered %d need %d, want 1/2", resp.Gathered, resp.Need)
		}
	}
	// Both instances are still in flight (TTL > deadline): the third is shed.
	resp, err := c.Submit("c", "r", 3)
	if err != nil {
		t.Fatalf("submit c: %v", err)
	}
	if resp.Status != StatusOverload || resp.Inflight != 2 || resp.Max != 2 {
		t.Fatalf("want overload 2/2, got %+v", resp)
	}

	// After the TTL the table drains and admission reopens.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Evictions < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("TTL never evicted: stats %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err = c.Submit("d", "r", 4)
	if err != nil {
		t.Fatalf("submit d after TTL: %v", err)
	}
	if resp.Status != StatusAbstain {
		t.Fatalf("submit d after TTL: status %s, want abstain (admission reopened)", resp.Status)
	}

	st := s.Stats()
	if st.Overloads != 1 || st.Abstains < 3 {
		t.Fatalf("stats: %+v, want 1 overload and >= 3 abstains", st)
	}
	snap := m.Snapshot()
	if snap.Events["serve.shed"] == 0 || snap.Events["serve.abstain"] == 0 {
		t.Fatalf("serve.* events missing: %v", snap.Events)
	}
	if snap.Hist["serve_request_ns"].Count == 0 {
		t.Fatalf("serve_request_ns histogram empty")
	}
}

// TestMixedDeadlinesAbstainInOrder: two requests wait on one instance that
// cannot decide, the later one with the earlier deadline — serve.Client
// forwards its own Timeout, so deadlines are not FIFO. Each abstains at
// its own deadline, the shorter first, and the instance is evicted only at
// its TTL.
func TestMixedDeadlinesAbstainInOrder(t *testing.T) {
	const ttl = 1500 * time.Millisecond
	s, err := Start(Config{
		Me: 0, F: 0,
		MeshAddrs:   []string{"127.0.0.1:0", "127.0.0.1:1"}, // peer 1 never listens
		WALDir:      t.TempDir(),
		InstanceTTL: ttl,
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()

	type answer struct {
		req  string
		resp Response
		err  error
		took time.Duration // from the submit to its answer
	}
	answers := make(chan answer, 2)
	submit := func(req string, timeout time.Duration) {
		c := NewClient(ClientConfig{Addr: s.ClientAddr(), Timeout: timeout, MaxAttempts: 1, Seed: 1})
		defer c.Close()
		t0 := time.Now()
		resp, err := c.Submit("x", req, 1)
		answers <- answer{req, resp, err, time.Since(t0)}
	}
	opened := time.Now()
	go submit("long", 600*time.Millisecond)
	waitFor(t, "the first request to attach", func() bool { return s.Stats().Submits == 1 })
	go submit("short", 100*time.Millisecond)

	for _, want := range []struct {
		req      string
		deadline time.Duration
	}{{"short", 100 * time.Millisecond}, {"long", 600 * time.Millisecond}} {
		a := <-answers
		if a.err != nil || a.req != want.req || a.resp.Status != StatusAbstain || a.resp.Gathered != 1 || a.resp.Need != 2 {
			t.Fatalf("next answer: %s %+v %v; want %s to abstain with 1 of 2 gathered", a.req, a.resp, a.err, want.req)
		}
		if a.took < want.deadline {
			t.Fatalf("%s abstained after %v, before its %v deadline", a.req, a.took, want.deadline)
		}
	}
	if st := s.Stats(); st.Abstains != 2 || st.Evictions != 0 {
		t.Fatalf("after both deadlines: %d abstains, %d evictions; want 2 and 0", st.Abstains, st.Evictions)
	}
	waitFor(t, "the TTL eviction", func() bool { return s.Stats().Evictions == 1 })
	if d := time.Since(opened); d < ttl {
		t.Fatalf("instance evicted %v after its first submit, before its %v TTL", d, ttl)
	}
}

// TestStartRefusesWhatReadJournalRefuses: Start and ReadJournal read a
// journal through one fold, so a record kind no server writes stops a
// restart with the audit's own error instead of being skipped.
func TestStartRefusesWhatReadJournalRefuses(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Create(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(recBoot, encodeBoot(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(9, []byte("?")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, want := ReadJournal(dir)
	if want == nil {
		t.Fatal("ReadJournal accepted a record of kind 9")
	}
	s, err := Start(Config{Me: 0, MeshAddrs: []string{"127.0.0.1:0"}, WALDir: dir, Seed: 1})
	if err == nil {
		s.Close()
		t.Fatalf("Start accepted the journal ReadJournal refuses with %q", want)
	}
	if err.Error() != want.Error() {
		t.Fatalf("Start refused with %q, ReadJournal with %q", err, want)
	}
}

// TestDecidedInstanceKeepsNoProposal: a decided instance's first-wins
// proposal is never read again — lookup answers the instance first — so
// neither the loop that decided it nor a restart over its journal keeps
// it, and the table stays bounded by the undecided instances. A one-node
// server (n=1, f=0: a quorum of one) decides k instances alone.
func TestDecidedInstanceKeepsNoProposal(t *testing.T) {
	const k = 8
	dir := t.TempDir()
	start := func() *Server {
		t.Helper()
		s, err := Start(Config{Me: 0, MeshAddrs: []string{"127.0.0.1:0"}, WALDir: dir, Seed: 1})
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		return s
	}

	s := start()
	c := NewClient(ClientConfig{Addr: s.ClientAddr(), Timeout: 2 * time.Second, Seed: 1})
	for i := 0; i < k; i++ {
		mustDecide(t, c, fmt.Sprintf("i%d", i), "r", i)
	}
	c.Close()
	s.Close() // its loop gone, the table is the test's to read
	if n := len(s.proposals); n != 0 {
		t.Fatalf("%d proposal entries after deciding %d instances, want 0", n, k)
	}

	s = start()
	s.Close()
	if got := s.Stats().RecoveredDecisions; got != k {
		t.Fatalf("restart recovered %d decisions, want %d", got, k)
	}
	if n := len(s.proposals); n != 0 {
		t.Fatalf("%d proposal entries after a restart over %d decided instances, want 0", n, k)
	}
}

func TestKillRestartKeepsAcknowledgedDecisions(t *testing.T) {
	cl := testCluster(t, 1, 0, nil)
	c := NewClient(ClientConfig{Addr: cl.ClientAddrs()[0], Timeout: 2 * time.Second, Seed: 1})
	defer c.Close()

	acked := map[string]int{}
	for i, inst := range []string{"a", "b", "c"} {
		resp := mustDecide(t, c, inst, "r-"+inst, 100+i)
		acked[inst] = resp.Val
	}
	cl.Servers[0].Kill()
	s, err := cl.Restart(0, nil)
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if s.Incarnation() != 2 {
		t.Fatalf("incarnation %d after restart, want 2", s.Incarnation())
	}
	// The restarted incarnation must answer queries and retries from the
	// journal, and a retried request ID still cannot re-decide.
	c.dropConn()
	for inst, val := range acked {
		resp, err := c.Query(inst)
		if err != nil || resp.Status != StatusDecided {
			t.Fatalf("acknowledged decision %s lost across kill-and-restart: %+v, %v", inst, resp, err)
		}
		if resp.Val != val {
			t.Fatalf("decision %s recovered as %d, want %d", inst, resp.Val, val)
		}
	}
	for inst, val := range acked {
		if resp := mustDecide(t, c, inst, "r-"+inst, -1); resp.Val != val {
			t.Fatalf("retry after restart: %s decided %d, want %d", inst, resp.Val, val)
		}
	}
	if st := s.Stats(); st.Decisions != 0 {
		t.Fatalf("restarted node re-decided %d instances", st.Decisions)
	}
}

// TestAckBeforeJournalBugLosesAck pins the planted bug's failure mode at
// the unit level: with the inversion and a crash hook on the first
// acknowledged decision, the client holds an ack the restarted journal
// has never heard of.
func TestAckBeforeJournalBugLosesAck(t *testing.T) {
	cl := testCluster(t, 1, 0, func(i int, cfg *Config) {
		cfg.AckBeforeJournalBug = true
		cfg.CrashAfterAcks = 1
	})
	c := NewClient(ClientConfig{Addr: cl.ClientAddrs()[0], Timeout: 2 * time.Second, Seed: 1})
	defer c.Close()

	resp := mustDecide(t, c, "doomed", "r1", 9)
	if resp.Val != 9 {
		t.Fatalf("decided %d, want 9", resp.Val)
	}
	select {
	case <-cl.Servers[0].Crashed():
	case <-time.After(5 * time.Second):
		t.Fatalf("crash hook never fired")
	}
	cl.Servers[0].Kill()
	if _, err := cl.Restart(0, nil); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	c.dropConn()
	if resp, err := c.Query("doomed"); err != nil || resp.Status != StatusUnknown {
		t.Fatalf("bug did not lose the acknowledged decision — the campaign would have nothing to catch: %+v, %v", resp, err)
	}
}

// peerMsg is one decoded peer message.
type peerMsg struct {
	kind byte
	inst string
	val  int
}

// decodeFrame decodes a mesh frame's payload, as deliver reads it: the
// messages before the first that fails to decode, and its error.
func decodeFrame(b []byte) ([]peerMsg, error) {
	var msgs []peerMsg
	for {
		kind, inst, val, rest, err := decodePeerMsg(b)
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, peerMsg{kind, inst, val})
		if b = rest; len(b) == 0 {
			return msgs, nil
		}
	}
}

// TestPeerFrameRoundTrip pins the mesh frame: messages back to back reach
// the loop in order. A frame that does not decode whole is refused with
// one serve.bad_peer_msg, and the messages before the fault still stand.
func TestPeerFrameRoundTrip(t *testing.T) {
	m := obs.NewMetrics()
	s := bareServer(t, 3, Config{Me: 0, F: 1, Observer: m})
	want := []peerMsg{{pmPropose, "a", 1}, {pmDecide, "bb", -7}, {pmProposeQuiet, "instance-3", 1 << 33}}
	var frame []byte
	for _, w := range want {
		frame = appendPeerMsg(frame, w.kind, w.inst, w.val)
	}
	good := appendPeerMsg(nil, pmPropose, "good", 4)
	for _, c := range []struct {
		name    string
		payload []byte
		want    []peerMsg
		bad     int64
	}{
		{"three messages", frame, want, 0},
		{"empty", nil, nil, 1},
		{"a cut message", frame[:len(frame)-1], want[:2], 1},
		{"a bad kind after a good message", append(bytes.Clone(good), 3, 1, 'x', 0), []peerMsg{{pmPropose, "good", 4}}, 1},
	} {
		before := m.Snapshot().Events["serve.bad_peer_msg"]
		s.deliver(2, c.payload)
		if bad := m.Snapshot().Events["serve.bad_peer_msg"] - before; bad != c.bad {
			t.Errorf("%s: %d serve.bad_peer_msg events, want %d", c.name, bad, c.bad)
		}
		for _, w := range c.want {
			if ev := <-s.ev; ev != (event{kind: w.kind, from: 2, inst: w.inst, val: w.val}) {
				t.Fatalf("%s: posted %+v, want %+v", c.name, ev, w)
			}
		}
		if len(s.ev) != 0 {
			t.Fatalf("%s: %d events posted past the ones wanted", c.name, len(s.ev))
		}
	}
}

// TestConcurrentSubmits drives a cluster with many concurrent clients
// over disjoint instances: every instance decides exactly once
// cluster-wide on the submitted value, journal appends coalesce into
// batches, and the broadcast batcher actually packed multi-message frames
// under the contention.
func TestConcurrentSubmits(t *testing.T) {
	m := obs.NewMetrics()
	cl, err := StartCluster(ClusterConfig{
		N: 3, F: 1, K: 2,
		Dir:            t.TempDir(),
		Sync:           wal.SyncAlways,
		RequestTimeout: 5 * time.Second,
		Seed:           1,
		Hist:           m.Hist(),
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()

	const clients, perClient = 8, 16
	type outcome struct {
		inst string
		val  int
	}
	results := make(chan outcome, clients*perClient)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(ClientConfig{
				Addr: cl.ClientAddrs()[w%3], Timeout: 5 * time.Second, Seed: int64(w),
			})
			defer c.Close()
			for i := 0; i < perClient; i++ {
				inst := fmt.Sprintf("w%d-i%d", w, i)
				resp, err := c.Submit(inst, "r", w*1000+i)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", inst, err)
					return
				}
				if resp.Status != StatusDecided {
					errs <- fmt.Errorf("%s: status %s", inst, resp.Status)
					return
				}
				results <- outcome{inst, resp.Val}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(results)
	// Disjoint instances with a single proposer each must decide exactly
	// the submitted value; re-query node 0 to confirm the decisions
	// propagated and are served idempotently.
	c := NewClient(ClientConfig{Addr: cl.ClientAddrs()[0], Timeout: 5 * time.Second, Seed: 99})
	defer c.Close()
	n := 0
	for r := range results {
		n++
		if resp := mustDecide(t, c, r.inst, "r", -1); resp.Val != r.val {
			t.Fatalf("%s: retry decided %d, want %d", r.inst, resp.Val, r.val)
		}
	}
	if n != clients*perClient {
		t.Fatalf("decided %d instances, want %d", n, clients*perClient)
	}
	// The journal went through the group…
	js := cl.Servers[0].JournalStats()
	if js.Appends == 0 || js.Batches == 0 || js.Batches > js.Appends {
		t.Fatalf("journal stats out of shape: %+v", js)
	}
	// …and the batch-size histograms filled.
	if m.Hist().Get("serve_wal_batch").Count() == 0 {
		t.Fatal("serve_wal_batch histogram empty")
	}
	bc := m.Hist().Get("serve_bcast_batch")
	if bc.Count() == 0 {
		t.Fatal("serve_bcast_batch histogram empty")
	}
	if bc.Snapshot().Max < 2 {
		t.Fatal("broadcast batcher never coalesced despite 128 concurrent instances")
	}
}

func TestClientUnreachable(t *testing.T) {
	c := NewClient(ClientConfig{
		Addr: "127.0.0.1:1", Timeout: 100 * time.Millisecond,
		MaxAttempts: 3, RetryUnit: time.Millisecond, Seed: 1,
	})
	defer c.Close()
	_, err := c.Submit("i", "r", 1)
	var ue *UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnreachableError, got %v", err)
	}
	if ue.Attempts != 3 || c.Retries != 2 {
		t.Fatalf("attempts %d retries %d, want 3 and 2", ue.Attempts, c.Retries)
	}
}
