package netsub

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/obs/hist"
)

// testConfig is a Config tuned for fast tests: tight heartbeats and
// redial so failure paths fire in milliseconds.
func testConfig() Config {
	return Config{
		HeartbeatEvery: 20 * time.Millisecond,
		WriteTimeout:   500 * time.Millisecond,
		DialTimeout:    500 * time.Millisecond,
		RedialUnit:     2 * time.Millisecond,
	}
}

// startMesh brings up n connected loopback nodes.
func startMesh(t *testing.T, n int, tweak func(i int, c *Config)) []*Node {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := testConfig()
		cfg.Me, cfg.N, cfg.Addrs, cfg.Listener = core.PID(i), n, addrs, lns[i]
		if tweak != nil {
			tweak(i, &cfg)
		}
		nd, err := Start(cfg)
		if err != nil {
			t.Fatalf("start p%d: %v", i, err)
		}
		nodes[i] = nd
		t.Cleanup(func() { nd.Close() })
	}
	return nodes
}

// restartPeer starts pid again on its old address as incarnation inc,
// retrying while the port lingers.
func restartPeer(t *testing.T, pid core.PID, addrs []string, inc int, tweak func(c *Config)) *Node {
	t.Helper()
	var nd *Node
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		cfg := testConfig()
		cfg.Me, cfg.N, cfg.Addrs, cfg.Incarnation = pid, len(addrs), addrs, inc
		if tweak != nil {
			tweak(&cfg)
		}
		if nd, err = Start(cfg); err == nil {
			t.Cleanup(func() { nd.Close() })
			return nd
		}
		time.Sleep(20 * time.Millisecond) // port may linger briefly
	}
	t.Fatalf("restart p%d on %s: %v", pid, addrs[pid], err)
	return nil
}

// waitHellos waits until nd has accepted want handshakes.
func waitHellos(t *testing.T, nd *Node, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); nd.Stats().HellosAccepted < want; {
		if time.Now().After(deadline) {
			t.Fatalf("p%d accepted %d hellos, want %d", nd.me, nd.Stats().HellosAccepted, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// recvFrom drains until a message from the wanted sender arrives.
func recvFrom(t *testing.T, nd *Node, from core.PID, within time.Duration) msgnet.Envelope {
	t.Helper()
	deadline := nd.Clock() + int(within/time.Millisecond)
	for {
		env, ok, err := nd.RecvTimeout(deadline)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if !ok {
			t.Fatalf("no message from p%d within %v", from, within)
		}
		if env.From == from {
			return env
		}
	}
}

func TestSendRecvAcrossTCP(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	values := []core.Value{42, "hi", []byte{1, 2}, true, nil, msgnet.RoundMsg{Round: 3, Value: -7}}
	for _, v := range values {
		if err := nodes[0].Send(1, v); err != nil {
			t.Fatalf("send %v: %v", v, err)
		}
	}
	for _, want := range values {
		env := recvFrom(t, nodes[1], 0, 2*time.Second)
		if fmt.Sprint(env.Payload) != fmt.Sprint(want) {
			t.Fatalf("got %#v, want %#v", env.Payload, want)
		}
	}
	// Loopback delivery works without touching the wire.
	if err := nodes[0].Send(0, "self"); err != nil {
		t.Fatalf("self send: %v", err)
	}
	if env := recvFrom(t, nodes[0], 0, time.Second); env.Payload != "self" {
		t.Fatalf("loopback got %#v", env.Payload)
	}
}

func TestBackpressureSheds(t *testing.T) {
	// An unreachable peer leaves the writer in dial-backoff, so nothing
	// drains and the bounded queue fills; the cap+1-th send must shed
	// with a structured BackpressureError rather than block or buffer.
	nodes := startMesh(t, 2, func(i int, c *Config) {
		c.SendQueue = 4
		if i == 0 {
			c.dial = func(string) (net.Conn, error) { return nil, errors.New("unreachable") }
		}
	})
	for k := 0; k < 4; k++ {
		if err := nodes[0].Send(1, k); err != nil {
			t.Fatalf("send %d within cap: %v", k, err)
		}
	}
	err := nodes[0].Send(1, 99)
	var bp *BackpressureError
	if !errors.As(err, &bp) || !errors.Is(err, ErrBackpressure) {
		t.Fatalf("want BackpressureError, got %v", err)
	}
	if bp.To != 1 || bp.Cap != 4 {
		t.Fatalf("error fields: %+v", bp)
	}
	if nodes[0].Stats().Sheds == 0 {
		t.Fatal("shed not counted")
	}
	// Broadcast survives the shed: it is a partial broadcast, not an error.
	if err := nodes[0].Broadcast("round"); err != nil {
		t.Fatalf("broadcast over congested peer: %v", err)
	}
}

func TestRestartedPeerReconnects(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	nodes[0].Send(1, "before")
	recvFrom(t, nodes[1], 0, 2*time.Second)

	// Kill p1 and restart it on the same address with a new incarnation:
	// p0's pool must redial and the stream must resume.
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}
	nodes[1].Close()
	restarted := restartPeer(t, 1, addrs, 2, nil)

	// Keep sending until a frame lands on the restarted node.
	deadline := time.Now().Add(5 * time.Second)
	for {
		nodes[0].Send(1, "after")
		env, ok, _ := restarted.RecvTimeout(restarted.Clock() + 50)
		if ok && env.Payload == "after" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted peer never heard from p0")
		}
	}
	st := nodes[0].Stats()
	if st.Reconnects == 0 {
		t.Fatalf("no reconnect recorded: %+v", st)
	}
}

func TestCloseUnblocksAndIsIdempotent(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	got := make(chan error, 1)
	go func() {
		_, err := nodes[0].Recv()
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	nodes[0].Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Recv returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked after Close")
	}
	nodes[0].Close() // idempotent
	if err := nodes[0].Send(1, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestHeartbeatRTTObserved(t *testing.T) {
	reg := hist.NewRegistry()
	nodes := startMesh(t, 2, func(i int, c *Config) {
		c.HeartbeatEvery = 5 * time.Millisecond
		c.Hist = reg
	})
	_ = nodes
	deadline := time.Now().Add(2 * time.Second)
	for reg.Get("netsub_rtt_ns").Count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no RTT samples recorded")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClockMonotonicMillis(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	a := nodes[0].Clock()
	time.Sleep(20 * time.Millisecond)
	b := nodes[0].Clock()
	if b < a+10 {
		t.Fatalf("clock advanced %d ms over a 20ms sleep", b-a)
	}
}

// TestFirstSendAfterPeerRestartArrives: p1 dies and comes back as
// incarnation 2. With heartbeats off p0 has no way to find its outbound
// connection dead except p1's new hello — and its very next Send must
// land on the new process, not vanish into the old connection (the
// kernel accepts exactly one write there).
func TestFirstSendAfterPeerRestartArrives(t *testing.T) {
	nodes := startMesh(t, 2, func(i int, c *Config) { c.HeartbeatEvery = -1 })
	nodes[0].Send(1, "before")
	recvFrom(t, nodes[1], 0, 2*time.Second)
	waitHellos(t, nodes[0], 1) // p0 must have met incarnation 1 to recognise 2 as a restart

	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}
	nodes[1].Close()
	restarted := restartPeer(t, 1, addrs, 2, func(c *Config) { c.HeartbeatEvery = -1 })

	waitHellos(t, nodes[0], 2) // counted only after the outbound lane was told
	if err := nodes[0].Send(1, "after"); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	if env := recvFrom(t, restarted, 0, 2*time.Second); env.Payload != "after" {
		t.Fatalf("restarted peer got %#v, want the first frame sent to it", env.Payload)
	}
	if st := nodes[0].Stats(); st.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want exactly 1 (no redial loop): %+v", st.Reconnects, st)
	}
}

// TestDownPeerIsRedialedAfterRestart: a peer that is down while sends
// keep queueing for it costs its bounded queue and a redial now and then,
// and is never given up on — its next incarnation hears the node.
func TestDownPeerIsRedialedAfterRestart(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	nodes[0].Send(1, "before")
	recvFrom(t, nodes[1], 0, 2*time.Second)
	waitHellos(t, nodes[0], 1)

	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}
	nodes[1].Close()
	for i := 0; i < 30; i++ {
		if err := nodes[0].Send(1, i); err != nil && !errors.Is(err, ErrBackpressure) {
			t.Fatalf("send %d to a down peer: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	restarted := restartPeer(t, 1, addrs, 2, nil)
	waitHellos(t, nodes[0], 2)

	if err := nodes[0].Send(1, "after"); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	// Frames queued during the outage reach the new incarnation first.
	for {
		if env := recvFrom(t, restarted, 0, 2*time.Second); env.Payload == "after" {
			break
		}
	}
	if st := nodes[0].Stats(); st.Reconnects == 0 {
		t.Fatalf("no reconnect recorded: %+v", st)
	}
}

// stallConn counts Write calls and holds the second one (the first data
// write; the hello is the first) until released.
type stallConn struct {
	net.Conn
	writes  atomic.Int64
	release chan struct{}
}

func (c *stallConn) Write(b []byte) (int, error) {
	if c.writes.Add(1) == 2 {
		<-c.release
	}
	return c.Conn.Write(b)
}

// TestWriterCoalescesQueuedFrames: frames that queue up behind a slow
// write leave in one conn.Write, in order, and each still counts as a
// frame sent.
func TestWriterCoalescesQueuedFrames(t *testing.T) {
	const k = 20
	sc := &stallConn{release: make(chan struct{})}
	nodes := startMesh(t, 2, func(i int, c *Config) {
		c.HeartbeatEvery = -1 // every Write past the hello is a data write
		if i == 0 {
			c.dial = func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				sc.Conn = conn
				return sc, err
			}
		}
	})
	nodes[0].Send(1, 0)
	for deadline := time.Now().Add(2 * time.Second); sc.writes.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("writer never reached its first data write")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < k; i++ {
		if err := nodes[0].Send(1, i); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	close(sc.release)
	for i := 0; i < k; i++ {
		if env := recvFrom(t, nodes[1], 0, 2*time.Second); env.Payload != i {
			t.Fatalf("frame %d arrived as %#v", i, env.Payload)
		}
	}
	if w := sc.writes.Load() - 1; w >= k {
		t.Fatalf("%d frames took %d data writes, want fewer", k, w)
	}
	// The writer counts a batch once its Write has returned, which may be
	// after the receiver has read it.
	for deadline := time.Now().Add(2 * time.Second); nodes[0].Stats().FramesSent != k; {
		if time.Now().After(deadline) {
			t.Fatalf("FramesSent = %d, want %d", nodes[0].Stats().FramesSent, k)
		}
		time.Sleep(time.Millisecond)
	}
}
