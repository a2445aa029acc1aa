package netsub

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
// writes so failure paths fire in milliseconds.
func testConfig() Config {
	return Config{
		HeartbeatEvery: 20 * time.Millisecond,
		writeTimeout:   500 * time.Millisecond,
	}
}

// rm is a round-1 message carrying v: a Send carries nothing else.
func rm(v core.Value) msgnet.RoundMsg { return msgnet.RoundMsg{Round: 1, Value: v} }

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
	values := []core.Value{rm(42), rm("hi"), rm(nil), msgnet.RoundMsg{Round: 3, Value: -7}}
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
	if err := nodes[0].Send(0, rm("self")); err != nil {
		t.Fatalf("self send: %v", err)
	}
	if env := recvFrom(t, nodes[0], 0, time.Second); env.Payload != rm("self") {
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
		if err := nodes[0].Send(1, rm(k)); err != nil {
			t.Fatalf("send %d within cap: %v", k, err)
		}
	}
	err := nodes[0].Send(1, rm(99))
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
	if err := nodes[0].Broadcast(rm("round")); err != nil {
		t.Fatalf("broadcast over congested peer: %v", err)
	}
}

func TestRestartedPeerReconnects(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	nodes[0].Send(1, rm("before"))
	recvFrom(t, nodes[1], 0, 2*time.Second)

	// Kill p1 and restart it on the same address with a new incarnation:
	// p0's pool must redial and the stream must resume.
	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}
	nodes[1].Close()
	restarted := restartPeer(t, 1, addrs, 2, nil)

	// Keep sending until a frame lands on the restarted node.
	deadline := time.Now().Add(5 * time.Second)
	for {
		nodes[0].Send(1, rm("after"))
		env, ok, _ := restarted.RecvTimeout(restarted.Clock() + 50)
		if ok && env.Payload == rm("after") {
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
	if err := nodes[0].Send(1, rm("x")); !errors.Is(err, ErrClosed) {
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

// writeCounter is a listener whose accepted connections count the bytes
// the node writes to them.
type writeCounter struct {
	net.Listener
	written atomic.Int64
}

func (l *writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, written: &l.written}, nil
}

type countedConn struct {
	net.Conn
	written *atomic.Int64
}

func (c *countedConn) Write(b []byte) (int, error) {
	c.written.Add(int64(len(b)))
	return c.Conn.Write(b)
}

// TestAcceptedConnectionIsOnlyRead: every connection is one directed
// link. p1 acks p0's heartbeats, so p0 records round trips, yet p1 writes
// nothing to the connection it accepted from p0: the acks go back on
// p1's own lane.
func TestAcceptedConnectionIsOnlyRead(t *testing.T) {
	reg := hist.NewRegistry()
	var counter *writeCounter
	nodes := startMesh(t, 2, func(i int, c *Config) {
		c.HeartbeatEvery = 5 * time.Millisecond
		if i == 0 {
			c.Hist = reg
		} else {
			counter = &writeCounter{Listener: c.Listener}
			c.Listener = counter
		}
	})
	waitFor(t, "p0's first round trip", func() bool { return reg.Get("netsub_rtt_ns").Count() > 0 })
	time.Sleep(4 * nodes[0].cfg.HeartbeatEvery)
	if w := counter.written.Load(); w != 0 {
		t.Fatalf("p1 wrote %d bytes to the connection it accepted", w)
	}
}

// TestHeartbeatAtStartIsAcked: p1 dials p0's listener before p0 starts
// and sends its hello and a heartbeat at once. p0's reader acks it on p0's
// lane to p1, which exists before p0 accepts anything, and the ack is the
// heartbeat's payload.
func TestHeartbeatAtStartIsAcked(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	in, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer in.Close()
	hi, _ := AppendFrame(nil, FrameHello, appendHello(nil, hello{pid: 1, n: 2, incarnation: 1}))
	stamp := binary.AppendUvarint(nil, 12345)
	hb, _ := AppendFrame(hi, FrameHeartbeat, stamp)
	if _, err := in.Write(hb); err != nil {
		t.Fatalf("hello and heartbeat: %v", err)
	}

	cfg := testConfig()
	cfg.HeartbeatEvery = time.Hour
	cfg.Me, cfg.N, cfg.Addrs, cfg.Listener = 0, 2, addrs, lns[0]
	p0, err := Start(cfg)
	if err != nil {
		t.Fatalf("start p0: %v", err)
	}
	defer p0.Close()
	out, err := lns[1].Accept()
	if err != nil {
		t.Fatalf("accept p0's lane: %v", err)
	}
	defer out.Close()
	out.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(out)
	var scratch []byte
	for {
		f, err := ReadFrame(br, &scratch)
		if err != nil {
			t.Fatalf("no ack on p0's lane: %v", err)
		}
		if f.Kind == FrameHeartbeatAck {
			if !bytes.Equal(f.Payload, stamp) {
				t.Fatalf("ack carries %x, want the heartbeat's %x", f.Payload, stamp)
			}
			return
		}
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
	nodes[0].Send(1, rm("before"))
	recvFrom(t, nodes[1], 0, 2*time.Second)
	waitHellos(t, nodes[0], 1) // p0 must have met incarnation 1 to recognise 2 as a restart

	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}
	nodes[1].Close()
	restarted := restartPeer(t, 1, addrs, 2, func(c *Config) { c.HeartbeatEvery = -1 })

	waitHellos(t, nodes[0], 2) // counted only after the outbound lane was told
	if err := nodes[0].Send(1, rm("after")); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	if env := recvFrom(t, restarted, 0, 2*time.Second); env.Payload != rm("after") {
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
	nodes[0].Send(1, rm("before"))
	recvFrom(t, nodes[1], 0, 2*time.Second)
	waitHellos(t, nodes[0], 1)

	addrs := []string{nodes[0].Addr(), nodes[1].Addr()}
	nodes[1].Close()
	for i := 0; i < 30; i++ {
		if err := nodes[0].Send(1, rm(i)); err != nil && !errors.Is(err, ErrBackpressure) {
			t.Fatalf("send %d to a down peer: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	restarted := restartPeer(t, 1, addrs, 2, nil)
	waitHellos(t, nodes[0], 2)

	if err := nodes[0].Send(1, rm("after")); err != nil {
		t.Fatalf("send after restart: %v", err)
	}
	// Frames queued during the outage reach the new incarnation first.
	for {
		if env := recvFrom(t, restarted, 0, 2*time.Second); env.Payload == rm("after") {
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
	nodes[0].Send(1, rm(0))
	for deadline := time.Now().Add(2 * time.Second); sc.writes.Load() < 2; {
		if time.Now().After(deadline) {
			t.Fatal("writer never reached its first data write")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < k; i++ {
		if err := nodes[0].Send(1, rm(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	close(sc.release)
	for i := 0; i < k; i++ {
		if env := recvFrom(t, nodes[1], 0, 2*time.Second); env.Payload != rm(i) {
			t.Fatalf("frame %d arrived as %#v", i, env.Payload)
		}
	}
	if w := sc.writes.Load() - 1; w >= k {
		t.Fatalf("%d frames took %d data writes, want fewer", k, w)
	}
	if got := nodes[0].Stats().FramesSent; got != k {
		t.Fatalf("FramesSent = %d, want %d", got, k)
	}
}

// TestHearsFollowsInboundConnection: p0 hears p1 while p1's inbound
// connection is registered — not before p1's hello, not once p1 has
// closed, again once p1 is back as incarnation 2 — and a connection that
// says hello and then nothing is dropped at the silence bound, 4
// heartbeat intervals, and not before.
func TestHearsFollowsInboundConnection(t *testing.T) {
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	start := func(pid core.PID) *Node {
		cfg := testConfig()
		cfg.Me, cfg.N, cfg.Addrs, cfg.Listener = pid, 2, addrs, lns[pid]
		nd, err := Start(cfg)
		if err != nil {
			t.Fatalf("start p%d: %v", pid, err)
		}
		t.Cleanup(func() { nd.Close() })
		return nd
	}
	p0 := start(0)
	if p0.Hears(1) {
		t.Fatal("p0 hears p1 before p1 has said hello")
	}
	p1 := start(1)
	waitFor(t, "p0 to hear p1", func() bool { return p0.Hears(1) })
	p1.Close()
	waitFor(t, "p0 to stop hearing the closed p1", func() bool { return !p0.Hears(1) })
	p1 = restartPeer(t, 1, addrs, 2, nil)
	waitFor(t, "p0 to hear p1's incarnation 2", func() bool { return p0.Hears(1) })
	p1.Close()
	waitFor(t, "p0 to stop hearing incarnation 2", func() bool { return !p0.Hears(1) })

	raw, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	hi, _ := AppendFrame(nil, FrameHello, appendHello(nil, hello{pid: 1, n: 2, incarnation: 3}))
	if _, err := raw.Write(hi); err != nil {
		t.Fatalf("hello: %v", err)
	}
	said := time.Now()
	waitFor(t, "p0 to hear the raw connection's hello", func() bool { return p0.Hears(1) })
	waitFor(t, "p0 to drop the silent connection", func() bool { return !p0.Hears(1) })
	if silence, took := 4*p0.cfg.HeartbeatEvery, time.Since(said); took < silence {
		t.Fatalf("a silent connection was dropped %v after its hello, inside the %v silence bound", took, silence)
	}
}
