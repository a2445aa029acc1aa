package serve

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/netsub"
	"repro/internal/obs"
	"repro/internal/wal"
)

// fastCluster is a 3-node f=1 cluster without fsyncs.
func fastCluster(t *testing.T, tune func(cc *ClusterConfig)) *Cluster {
	t.Helper()
	cc := ClusterConfig{
		N: 3, F: 1, K: 2,
		Dir:            t.TempDir(),
		Sync:           wal.SyncNever,
		RequestTimeout: 2 * time.Second,
		Seed:           1,
	}
	if tune != nil {
		tune(&cc)
	}
	cl, err := StartCluster(cc)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func clientOf(cl *Cluster, i int) *Client {
	return NewClient(ClientConfig{Addr: cl.ClientAddrs()[i], Timeout: 2 * time.Second, MaxAttempts: 1, Seed: int64(i)})
}

// warm decides one instance and waits until every node has met all its
// peers: a restart is recognised against the incarnation seen before it.
func warm(t *testing.T, cl *Cluster, c *Client) {
	t.Helper()
	mustDecide(t, c, "warm", "warm", 0)
	waitFor(t, "the mesh to connect", func() bool {
		for _, s := range cl.Servers {
			if s.Mesh().Stats().HellosAccepted < int64(len(cl.Servers)-1) {
				return false
			}
		}
		return true
	})
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRefusedAppendExternalizesNothing: a turn whose journal append is
// refused releases no ack, no frame and no readable decision, and the
// server — its table now ahead of its journal — stops serving.
func TestRefusedAppendExternalizesNothing(t *testing.T) {
	cl := fastCluster(t, nil)
	c := clientOf(cl, 0)
	defer c.Close()
	warm(t, cl, c)

	// The warm-up is over once every proposal has been handled — the
	// origin's plain one to node 1 and quiet one to node 2, and node 1's
	// answer — and the last frame has left. Node 2 answers nothing.
	s := cl.Servers[0]
	waitFor(t, "the warm-up's proposals", func() bool {
		for _, sv := range cl.Servers {
			if sv.Stats().PeerProposes != 1 {
				return false
			}
		}
		return true
	})
	var frames []int64 // by node
	waitFor(t, "the warm-up's last frames", func() bool {
		prev := frames
		time.Sleep(20 * time.Millisecond)
		frames = nil
		for _, sv := range cl.Servers {
			frames = append(frames, sv.Mesh().Stats().FramesSent)
		}
		return slices.Equal(frames, prev)
	})
	if want := []int64{2, 1, 0}; !slices.Equal(frames, want) {
		t.Fatalf("nodes sent %v frames in the warm-up, want %v", frames, want)
	}
	proposes := cl.Servers[1].Stats().PeerProposes + cl.Servers[2].Stats().PeerProposes
	s.group.Close()

	// A second connection reads the doomed instance for as long as the
	// server answers at all.
	reads := make(chan struct{})
	go func() {
		defer close(reads)
		q := clientOf(cl, 0)
		defer q.Close()
		for {
			resp, err := q.Query("doomed")
			if err != nil {
				return
			}
			if resp.Status != StatusUnknown {
				t.Errorf("a query read %+v of an instance whose journal append was refused", resp)
				return
			}
		}
	}()

	// The turn that handles this submit records a proposal record, a
	// plain proposal to node 1 and a quiet one to node 2; the append is
	// refused.
	if resp, err := c.Submit("doomed", "r", 7); err == nil {
		t.Fatalf("submit on a refused journal was answered: %+v", resp)
	}
	select {
	case <-s.done:
	case <-time.After(2 * time.Second):
		t.Fatal("server kept serving after its journal refused an append")
	}
	<-reads
	if got := s.Mesh().Stats().FramesSent; got != frames[0] {
		t.Fatalf("refused turn sent %d frames", got-frames[0])
	}
	if got := cl.Servers[1].Stats().PeerProposes + cl.Servers[2].Stats().PeerProposes; got != proposes {
		t.Fatalf("peers heard %d proposals of a refused turn", got-proposes)
	}
	if st := s.Stats(); st.AckedDecisions != 1 {
		t.Fatalf("acked decisions = %d, want only the warm-up's", st.AckedDecisions)
	}
}

// TestFramesAndCommitsPerDecide pins what a serial fresh decide costs a
// fault-free cluster with n−f = 2. On the mesh: the origin's proposal to
// each peer, and one answer, from the n−f−1 = 1 peer it asked (a peer
// decides in the turn it opens the instance, so its proposal can count
// only at the origin; the f quiet peers answer nothing), with no decision
// reply: (n−1)+(n−f−1) frames, sheds counted. In each journal: two
// records for every instance the node heard of, the origin's in two
// commits, a peer's in one. A peer that misses a frame the origin shed
// hears of that instance only if the origin hedges, so the records are
// checked node by node.
func TestFramesAndCommitsPerDecide(t *testing.T) {
	for _, shape := range []struct{ n, f int }{{3, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("n=%d,f=%d", shape.n, shape.f), func(t *testing.T) {
			framesAndCommitsPerDecide(t, shape.n, shape.f)
		})
	}
}

func framesAndCommitsPerDecide(t *testing.T, n, f int) {
	cl := fastCluster(t, func(cc *ClusterConfig) { cc.N, cc.F, cc.K = n, f, f+1 })
	c := clientOf(cl, 0)
	defer c.Close()
	warm(t, cl, c)

	type count struct{ frames, commits, decisions int64 }
	// settle waits until no count has moved for a poll, every frame sent
	// has been received and every node holds two records for each instance
	// it decided. It returns the cluster's frames (sheds counted) and
	// commits, and the origin's decisions.
	settle := func() (sum count) {
		var last []count
		waitFor(t, "every node to journal what it decided", func() bool {
			now := make([]count, len(cl.Servers))
			var sent, recv int64
			whole := true
			for i, s := range cl.Servers {
				ms, js, st := s.Mesh().Stats(), s.JournalStats(), s.Stats()
				sent, recv = sent+ms.FramesSent, recv+ms.FramesReceived
				whole = whole && js.Appends == 2*st.Decisions
				now[i] = count{ms.FramesSent + ms.Sheds, js.Batches, st.Decisions}
			}
			still := slices.Equal(now, last)
			last = now
			time.Sleep(10 * time.Millisecond)
			return still && whole && sent == recv
		})
		for _, c := range last {
			sum.frames += c.frames
			sum.commits += c.commits
		}
		sum.decisions = last[0].decisions
		return sum
	}
	before := settle()

	const decides = 200
	for i := 0; i < decides; i++ {
		inst := fmt.Sprintf("i%d", i)
		if resp := mustDecide(t, c, inst, inst, i); resp.Val != i {
			t.Fatalf("%s decided %d, want %d", inst, resp.Val, i)
		}
	}
	after := settle()
	if got := after.decisions - before.decisions; got != decides {
		t.Fatalf("the origin decided %d of %d instances", got, decides)
	}
	if perDecide, want := float64(after.frames-before.frames)/decides, float64(n-1+n-f-1); perDecide > want {
		t.Fatalf("%.2f mesh frames per decide, want <= %.0f", perDecide, want)
	}
	if perDecide, want := float64(after.commits-before.commits)/decides, float64(n+1); perDecide > want {
		t.Fatalf("%.2f journal commits per decide, want <= %.0f", perDecide, want)
	}
	for i, s := range cl.Servers {
		if st := s.Stats(); st.Adopted != 0 || st.Abstains != 0 {
			t.Fatalf("node %d adopted %d, abstained %d in a fault-free run", i, st.Adopted, st.Abstains)
		}
	}
}

// TestLateProposerIsAnsweredWithDecision: a node that was down while its
// peers decided learns the decision the only way left — by proposing for
// the instance and being answered.
func TestLateProposerIsAnsweredWithDecision(t *testing.T) {
	cl := fastCluster(t, nil)
	c0 := clientOf(cl, 0)
	defer c0.Close()
	warm(t, cl, c0)

	cl.Servers[2].Kill()
	want := mustDecide(t, c0, "missed", "r0", 40).Val // nodes 0 and 1 are a quorum
	s2, err := cl.Restart(2, nil)
	if err != nil {
		t.Fatalf("Restart: %v", err)
	}
	c2 := clientOf(cl, 2)
	defer c2.Close()
	if resp, err := c2.Query("missed"); err != nil || resp.Status != StatusUnknown {
		t.Fatalf("node 2 knows a decision taken while it was down: %+v, %v", resp, err)
	}
	if got := mustDecide(t, c2, "missed", "r2", 5).Val; got != want {
		t.Fatalf("late proposer decided %d, its peers %d", got, want)
	}
	if st := s2.Stats(); st.Adopted != 1 || st.Decisions != 0 {
		t.Fatalf("node 2 adopted %d and decided %d, want 1 and 0", st.Adopted, st.Decisions)
	}
}

// TestFirstSubmitAfterRestartDecidesPromptly: the first fresh instance
// submitted to a restarted node needs its peers' proposals back over
// lanes that were connected to the dead incarnation.
func TestFirstSubmitAfterRestartDecidesPromptly(t *testing.T) {
	cl := fastCluster(t, nil)
	c0 := clientOf(cl, 0)
	defer c0.Close()
	warm(t, cl, c0)

	cl.Servers[2].Kill()
	if _, err := cl.Restart(2, nil); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	c2 := clientOf(cl, 2)
	defer c2.Close()
	start := time.Now()
	mustDecide(t, c2, "fresh", "r", 9)
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("first decide after restart took %v of a 2s RequestTimeout", d)
	}
}

// TestRestartAfterOutageUnderLoadDecides: a node that was down for
// seconds while its peers kept proposing to it is heard again once it is
// back — its peers' lanes redial it rather than give it up, so its own
// fresh instances gather a quorum.
func TestRestartAfterOutageUnderLoadDecides(t *testing.T) {
	cl := fastCluster(t, nil)
	c0 := clientOf(cl, 0)
	defer c0.Close()
	warm(t, cl, c0)

	cl.Servers[2].Kill()
	for i, start := 0, time.Now(); time.Since(start) < 2500*time.Millisecond; i++ {
		inst := fmt.Sprintf("load%d", i)
		mustDecide(t, c0, inst, inst, i) // nodes 0 and 1 are a quorum
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := cl.Restart(2, nil); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	c2 := NewClient(ClientConfig{Addr: cl.ClientAddrs()[2], Timeout: time.Second, MaxAttempts: 1, Seed: 2})
	defer c2.Close()
	var resp Response
	var err error
	for attempt := 1; attempt <= 3; attempt++ {
		inst := fmt.Sprintf("after%d", attempt)
		if resp, err = c2.Submit(inst, inst, attempt); err == nil && resp.Status == StatusDecided {
			return
		}
	}
	t.Fatalf("restarted node decided none of 3 fresh instances: last %+v, %v", resp, err)
}

// TestRestartRebindsAPortADialHeld: a killed node's ports go back to the
// ephemeral range, and an outbound connection may take one as its local
// port before Restart binds it again. Restart waits for the port with
// bounded backoff; past the bound its error names the port.
func TestRestartRebindsAPortADialHeld(t *testing.T) {
	cl := fastCluster(t, nil)
	c0 := clientOf(cl, 0)
	defer c0.Close()
	warm(t, cl, c0)
	cl.Servers[2].Kill()

	// No client ever connected to node 2, so nothing lingers on its
	// client port once the node is dead.
	addr := cl.clientAddrs[2]
	target, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer target.Close()
	hold := func() net.Conn {
		t.Helper()
		local, err := net.ResolveTCPAddr("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn, err := (&net.Dialer{LocalAddr: local}).Dial("tcp", target.Addr().String())
		if err != nil {
			t.Fatalf("dial from the freed port %s: %v", addr, err)
		}
		// Reset on close: a TIME_WAIT left by this side would keep the
		// port from any listener for a minute.
		conn.(*net.TCPConn).SetLinger(0)
		return conn
	}

	conn := hold()
	if _, err := cl.Restart(2, nil); err == nil || !strings.Contains(err.Error(), addr) {
		t.Fatalf("Restart onto a port held throughout: %v; want an error naming %s", err, addr)
	}
	conn.Close()

	conn = hold()
	time.AfterFunc(50*time.Millisecond, func() { conn.Close() })
	if _, err := cl.Restart(2, nil); err != nil {
		t.Fatalf("Restart onto a port held for 50ms: %v", err)
	}
	c2 := clientOf(cl, 2)
	defer c2.Close()
	mustDecide(t, c2, "rebound", "r", 3)
}

// TestStoppedServerLeavesNothingBehind: after Close or Kill, with
// instances still open and waiters still attached, no goroutine of the
// server survives the TTL.
func TestStoppedServerLeavesNothingBehind(t *testing.T) {
	for _, stop := range []string{"close", "kill"} {
		base := runtime.NumGoroutine()
		const ttl = 300 * time.Millisecond
		s, err := Start(Config{
			Me: 0, F: 0,
			MeshAddrs:      []string{"127.0.0.1:0", "127.0.0.1:1"}, // peer 1 never listens
			WALDir:         t.TempDir(),
			RequestTimeout: ttl / 2,
			InstanceTTL:    ttl,
			Seed:           1,
		})
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		c := NewClient(ClientConfig{Addr: s.ClientAddr(), Timeout: ttl / 2, MaxAttempts: 1, Seed: 1})
		for _, inst := range []string{"a", "b", "c"} {
			if resp, err := c.Submit(inst, "r", 1); err != nil || resp.Status != StatusAbstain {
				t.Fatalf("%s: submit %s: %+v, %v", stop, inst, resp, err)
			}
		}
		c.Close()
		if stop == "close" {
			s.Close()
		} else {
			s.Kill()
			s.log.Close()
		}
		for deadline := time.Now().Add(ttl + time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s: %d goroutines, %d before Start\n%s", stop, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestDeadPeerIsNotAsked: a 3-node origin asks the first peer after it in
// pid order that its mesh hears. With node 1 dead and its connection gone,
// four fresh instances ask node 2 and decide without a hedge or an adopted
// decision. Restarted with no client of its own, node 1 is heard again, and
// the origin's next decide asks it: node 2, quiet, sends nothing. Node 2's
// frames count before they can reach a peer, so its answers to the first
// four are counted before their decides return.
func TestDeadPeerIsNotAsked(t *testing.T) {
	cl := fastCluster(t, nil)
	c0 := clientOf(cl, 0)
	defer c0.Close()
	warm(t, cl, c0)
	s0, s2 := cl.Servers[0], cl.Servers[2]

	cl.Servers[1].Kill()
	waitFor(t, "node 0 to stop hearing node 1", func() bool { return !s0.Mesh().Hears(1) })
	for i := range 4 {
		inst := fmt.Sprintf("asks-2-%d", i)
		mustDecide(t, c0, inst, inst, i)
	}
	if st := s0.Stats(); st.Hedges != 0 || st.Adopted != 0 {
		t.Fatalf("with node 1 unheard the origin hedged %d and adopted %d, want 0 and 0", st.Hedges, st.Adopted)
	}

	if _, err := cl.Restart(1, nil); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	waitFor(t, "node 0 to hear node 1 again", func() bool { return s0.Mesh().Hears(1) })
	sent, heard := s2.Mesh().Stats().FramesSent, s2.Stats().PeerProposes
	mustDecide(t, c0, "asks-1", "r", 6)
	waitFor(t, "node 2 to hear the quiet proposal", func() bool { return s2.Stats().PeerProposes > heard })
	time.Sleep(20 * time.Millisecond) // room for a frame node 2 should not send
	if got := s2.Mesh().Stats().FramesSent; got != sent {
		t.Fatalf("node 2 sent %d frames for a decide that should ask node 1", got-sent)
	}
	if st := s0.Stats(); st.Hedges != 0 {
		t.Fatalf("origin hedged %d times, want 0", st.Hedges)
	}
}

// TestSlowPeerDelaysOnlyItsAskers: every data frame into node 1 waits
// 2–10 ms in a chaos proxy that passes control frames untouched, so node 1
// stays heard. Node 0 asks node 1 and waits for it; node 2 asks node 0,
// and its median decide stays under the smallest injected delay. Every
// decide is answered, and the answers pass the audit.
func TestSlowPeerDelaysOnlyItsAskers(t *testing.T) {
	plan := faultnet.Plan{Seed: 1, Components: []faultnet.Component{{Kind: faultnet.Delay, Rate: 1, MaxDelay: 5}}}
	cl := fastCluster(t, func(cc *ClusterConfig) {
		cc.Tune = func(i int, cfg *Config) {
			if i == 1 {
				cfg.MeshListener = netsub.WrapListener(cfg.MeshListener, plan, 1)
			}
		}
	})
	audit, submitted := NewAuditor(), map[string]map[int]bool{}
	p50 := func(origin int) time.Duration {
		c := clientOf(cl, origin)
		defer c.Close()
		took := make([]time.Duration, 60)
		for i := range took {
			inst := fmt.Sprintf("slow-%d-%d", origin, i)
			submitted[inst] = map[int]bool{i: true}
			start := time.Now()
			resp := mustDecide(t, c, inst, inst, i)
			took[i] = time.Since(start)
			audit.Note(inst, inst, resp.Val)
		}
		slices.Sort(took)
		return took[len(took)/2]
	}
	asks, spared := p50(0), p50(2)
	t.Logf("p50 of a fresh decide: node 0 (asks node 1) %v, node 2 (does not) %v", asks, spared)
	if v := audit.Violations(submitted, 2); len(v) > 0 {
		t.Fatalf("audit: %+v", v)
	}
	if spared >= 2*time.Millisecond {
		t.Fatalf("node 2's p50 decide took %v, which waits on node 1's 2 ms delay", spared)
	}
}

// hedgeLog keeps the unheard pids of every serve.hedge event.
type hedgeLog struct {
	mu    sync.Mutex
	hedge [][]core.PID
}

func (h *hedgeLog) Observe(e obs.Event) {
	if e.Kind == "serve.hedge" {
		h.mu.Lock()
		h.hedge = append(h.hedge, e.Fields["unheard"].([]core.PID))
		h.mu.Unlock()
	}
}

// TestHedgeResendsShedProposal drives the server's handlers, flush and
// deadlines by hand (its loop idles). No peer listens, so each lane holds
// SendQueue = 1 frame and sheds the rest: the second fresh instance's
// proposals are shed. Its client names a 1 ms deadline, which abstains
// but moves no hedge. At RequestTimeout/hedgeFraction both instances are
// proposed to every peer again, asking each.
func TestHedgeResendsShedProposal(t *testing.T) {
	log := &hedgeLog{}
	s, err := Start(Config{
		Me: 0, F: 1,
		MeshAddrs:   []string{"127.0.0.1:0", "127.0.0.1:1", "127.0.0.1:1"}, // no peer listens
		Mesh:        netsub.Config{SendQueue: 1},
		WALDir:      t.TempDir(),
		InstanceTTL: time.Hour,
		Seed:        1,
		Observer:    log,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer s.Close()
	near, _ := tcpPair(t)
	cc := newClientConn(near)
	submit := func(inst string, start time.Time, timeout int) {
		s.handle(event{inst: inst, req: inst, val: 7, timeout: timeout, cc: cc, start: start})
	}

	start := time.Now()
	for i, inst := range []string{"a", "b"} {
		submit(inst, start, i) // b's client names 1 ms
		sentKinds(t, s, 1, 0, pmPropose)
		sentKinds(t, s, 2, 0, pmProposeQuiet)
		s.flush()
	}
	if ms := s.Mesh().Stats(); ms.Sheds != 2 {
		t.Fatalf("%d frames shed, want b's two", ms.Sheds)
	}
	hedgeAt := start.Add(s.cfg.RequestTimeout / hedgeFraction)
	s.expire(hedgeAt.Add(-time.Millisecond))
	if st := s.Stats(); st.Hedges != 0 || st.Abstains != 1 {
		t.Fatalf("%d hedges and %d abstains before the hedge, want 0 and b's 1", st.Hedges, st.Abstains)
	}
	s.flush()
	s.expire(hedgeAt)
	if st := s.Stats(); st.Hedges != 2 {
		t.Fatalf("%d hedges, want a's and b's", st.Hedges)
	}
	sentKinds(t, s, 1, 0, pmPropose, pmPropose)
	sentKinds(t, s, 2, 0, pmPropose, pmPropose)
	log.mu.Lock()
	if want := [][]core.PID{{1, 2}, {1, 2}}; !reflect.DeepEqual(log.hedge, want) {
		t.Errorf("serve.hedge events name %v unheard, want %v", log.hedge, want)
	}
	log.mu.Unlock()
}
