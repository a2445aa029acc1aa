package serve

import (
	"fmt"
	"runtime"
	"testing"
	"time"

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

// warm decides one instance and waits until every node has met both its
// peers: a restart is recognised against the incarnation seen before it.
func warm(t *testing.T, cl *Cluster, c *Client) {
	t.Helper()
	mustDecide(t, c, "warm", "warm", 0)
	waitFor(t, "the mesh to connect", func() bool {
		for _, s := range cl.Servers {
			if s.Mesh().Stats().HellosAccepted < 2 {
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

	// The warm-up is over once every node has handled both its peers'
	// proposals and node 0's reply to the later one has left.
	s := cl.Servers[0]
	waitFor(t, "the warm-up's proposals", func() bool {
		var n int64
		for _, sv := range cl.Servers {
			n += sv.Stats().PeerProposes
		}
		return n == 6
	})
	frames := int64(-1)
	waitFor(t, "the warm-up's last frames", func() bool {
		prev := frames
		time.Sleep(20 * time.Millisecond)
		frames = s.Mesh().Stats().FramesSent
		return frames == prev
	})
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

	// The turn that handles this submit records a proposal record and a
	// proposal to each peer; the append is refused.
	if resp, err := c.Submit("doomed", "r", 7); err == nil {
		t.Fatalf("submit on a refused journal was answered: %+v", resp)
	}
	select {
	case <-s.done:
	case <-time.After(2 * time.Second):
		t.Fatal("server kept serving after its journal refused an append")
	}
	<-reads
	if got := s.Mesh().Stats().FramesSent; got != frames {
		t.Fatalf("refused turn sent %d frames", got-frames)
	}
	if got := cl.Servers[1].Stats().PeerProposes + cl.Servers[2].Stats().PeerProposes; got != proposes {
		t.Fatalf("peers heard %d proposals of a refused turn", got-proposes)
	}
	if st := s.Stats(); st.AckedDecisions != 1 {
		t.Fatalf("acked decisions = %d, want only the warm-up's", st.AckedDecisions)
	}
}

// TestFramesAndCommitsPerDecide pins what a serial fresh decide costs a
// fault-free 3-node cluster: on the mesh six proposals plus at most three
// decision replies to late proposers, in the journals six records in four
// commits (the origin's proposal and decision are two turns; a peer's are
// one).
func TestFramesAndCommitsPerDecide(t *testing.T) {
	cl := fastCluster(t, nil)
	c := clientOf(cl, 0)
	defer c.Close()
	warm(t, cl, c)

	totals := func() (frames, appends, batches int64) {
		for _, s := range cl.Servers {
			frames += s.Mesh().Stats().FramesSent
			js := s.JournalStats()
			appends += js.Appends
			batches += js.Batches
		}
		return
	}
	settle := func(decides int64) {
		waitFor(t, "every node to journal its decision", func() bool {
			_, appends, _ := totals()
			return appends == 6*decides
		})
		time.Sleep(20 * time.Millisecond) // trailing replies
	}
	settle(1)
	f0, a0, b0 := totals()

	const decides = 200
	for i := 0; i < decides; i++ {
		inst := fmt.Sprintf("i%d", i)
		if resp := mustDecide(t, c, inst, inst, i); resp.Val != i {
			t.Fatalf("%s decided %d, want %d", inst, resp.Val, i)
		}
	}
	settle(1 + decides)
	f1, a1, b1 := totals()
	if a1-a0 != 6*decides {
		t.Fatalf("%d journal records for %d decides, want 6 each", a1-a0, decides)
	}
	if perDecide := float64(f1-f0) / decides; perDecide > 9.5 {
		t.Fatalf("%.2f mesh frames per decide, want <= 9.5", perDecide)
	}
	if perDecide := float64(b1-b0) / decides; perDecide > 4.5 {
		t.Fatalf("%.2f journal commits per decide, want <= 4.5", perDecide)
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
	if _, ok := s2.RecoveredDecisions()["missed"]; ok {
		t.Fatal("node 2 knows a decision taken while it was down")
	}
	c2 := clientOf(cl, 2)
	defer c2.Close()
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

// TestStoppedServerLeavesNothingBehind: after Close or Kill, with
// instances still open and waiters still attached, no goroutine of the
// server survives the TTL.
func TestStoppedServerLeavesNothingBehind(t *testing.T) {
	for _, stop := range []string{"close", "kill"} {
		base := runtime.NumGoroutine()
		const ttl = 300 * time.Millisecond
		s, err := Start(Config{
			Me: 0, N: 2, F: 0,
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
