package netsub

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msgnet"
)

// TestLaneStalledReader: a peer whose reader stalls cannot take a frame
// larger than the kernel's buffers (the sender's kept small), so the
// first inline write finishes only part of it and hands the rest to the
// writer, whose write then blocks. Send never blocks: it queues, and
// sheds once SendQueue frames wait. When the reader drains, every
// accepted frame arrives whole, CRC-valid and in send order, and
// FramesSent counts exactly them, from the moment each is accepted.
func TestLaneStalledReader(t *testing.T) {
	const sendQueue, frameBytes, sends = 8, 512 << 10, 32
	dialed := make(chan *net.TCPConn, 1)
	nd, br := laneToTest(t, func(c *Config) {
		c.SendQueue, c.writeTimeout = sendQueue, time.Minute
		c.dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err == nil {
				err = c.(*net.TCPConn).SetWriteBuffer(4096)
				select {
				case dialed <- c.(*net.TCPConn):
				default:
				}
			}
			return c, err
		}
	})
	lane := nd.peers[1].lane

	payload := make([]byte, frameBytes)
	var accepted []uint32
	sheds, partial := 0, false
	start := time.Now()
	for i := uint32(0); i < sends; i++ {
		binary.BigEndian.PutUint32(payload, i)
		err := nd.Send(1, rm(string(payload)))
		var bp *BackpressureError
		switch {
		case err == nil:
			accepted = append(accepted, i)
		case errors.As(err, &bp):
			if bp.Cap != sendQueue {
				t.Fatalf("shed with cap %d, want %d", bp.Cap, sendQueue)
			}
			if sheds == 0 {
				lane.mu.Lock()
				queued := lane.len()
				// The writer cannot finish a write, so the head is still
				// the frame the inline path cut short.
				partial = lane.q[lane.head].off > 0
				lane.mu.Unlock()
				if queued != sendQueue {
					t.Fatalf("first shed with %d frames queued, want %d", queued, sendQueue)
				}
			}
			sheds++
		default:
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if len(accepted) != sendQueue {
		t.Fatalf("%d of %d sends to a stalled reader accepted, want the %d the queue holds", len(accepted), sends, sendQueue)
	}
	if !partial {
		t.Fatal("no inline write stopped inside a frame: the partial-write hand-off went untested")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("%d sends to a stalled reader took %v", sends, d)
	}
	if st := nd.Stats(); st.FramesSent != int64(len(accepted)) || st.Sheds != int64(sheds) {
		t.Fatalf("before the drain FramesSent = %d and Sheds = %d, want %d and %d", st.FramesSent, st.Sheds, len(accepted), sheds)
	}

	// A send buffer this small against loopback's 64 KiB segments drains
	// slowly; the stall is over.
	(<-dialed).SetWriteBuffer(4 << 20)
	var scratch []byte
	for _, want := range accepted {
		f, err := ReadFrame(br, &scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		v, _, err := DecodeValue(f.Payload)
		m, _ := v.(msgnet.RoundMsg)
		b, ok := m.Value.(string)
		if err != nil || !ok || len(b) != frameBytes {
			t.Fatalf("frame %d decodes to %#v of %d bytes, %v", want, m.Value, len(b), err)
		}
		if got := binary.BigEndian.Uint32([]byte(b[:4])); got != want {
			t.Fatalf("frame %d arrived where %d was due", got, want)
		}
	}
	if st := nd.Stats(); st.FramesSent != int64(len(accepted)) || st.Sheds != int64(sheds) {
		t.Fatalf("after the drain FramesSent = %d and Sheds = %d, want %d and %d", st.FramesSent, st.Sheds, len(accepted), sheds)
	}
}

// TestLaneInlineSendAllocatesNothing: a Send of a boxed round message to an idle,
// connected peer encodes into the lane's scratch and writes it from the
// caller's goroutine, allocating nothing. The peer is the test's own
// reader, which allocates nothing either: AllocsPerRun counts the process.
func TestLaneInlineSendAllocatesNothing(t *testing.T) {
	nd, br := laneToTest(t, nil)
	var payload core.Value = rm("a proposal-sized payload")
	frame, _ := appendValueFrame(nil, payload)
	const runs = 1000 // AllocsPerRun sends once more, to warm up
	got := make([]byte, (runs+1)*len(frame))
	read := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(br, got)
		read <- err
	}()
	if allocs := testing.AllocsPerRun(runs, func() {
		if err := nd.Send(1, payload); err != nil {
			t.Fatalf("send: %v", err)
		}
	}); allocs != 0 {
		t.Fatalf("an inline Send allocates %.1f objects, want 0", allocs)
	}
	if err := <-read; err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := 0; i <= runs; i++ {
		if !bytes.Equal(got[i*len(frame):(i+1)*len(frame)], frame) {
			t.Fatalf("frame %d arrived as %x, want %x", i, got[i*len(frame):(i+1)*len(frame)], frame)
		}
	}
	if st := nd.Stats(); st.FramesSent != runs+1 {
		t.Fatalf("FramesSent = %d, want %d", st.FramesSent, runs+1)
	}
}

// laneToTest starts p0 of a two-node mesh, heartbeats off, whose p1 is a
// listener the test owns, and returns it with a reader on the connection
// p0's lane writes to, past the hello, once the lane is live.
func laneToTest(t *testing.T, tweak func(c *Config)) (*Node, *bufio.Reader) {
	t.Helper()
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
	cfg := testConfig()
	cfg.Me, cfg.N, cfg.Addrs, cfg.Listener, cfg.HeartbeatEvery = 0, 2, addrs, lns[0], -1
	if tweak != nil {
		tweak(&cfg)
	}
	nd, err := Start(cfg)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { nd.Close() })
	far, err := lns[1].Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() { far.Close() })
	br := bufio.NewReader(far)
	var scratch []byte
	if f, err := ReadFrame(br, &scratch); err != nil || f.Kind != FrameHello {
		t.Fatalf("first frame %v, %v; want the hello", f.Kind, err)
	}
	lane := nd.peers[1].lane
	waitFor(t, "the lane to connect", func() bool {
		lane.mu.Lock()
		defer lane.mu.Unlock()
		return lane.conn != nil
	})
	return nd, br
}

// TestLaneWithoutRawConnGoesThroughTheWriter: over a connection with no
// RawConn every frame queues for the writer, which writes them in order;
// a closed lane sheds.
func TestLaneWithoutRawConnGoesThroughTheWriter(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	l := NewLane(near, 2)
	for _, line := range []string{"one\n", "two\n"} {
		if n, ok := l.Push(append(l.Buf(), line...)); !ok || n == 0 {
			t.Fatalf("push %q: queued %d, ok %v; want it queued", line, n, ok)
		}
	}
	if _, ok := l.Push(append(l.Buf(), "three\n"...)); ok {
		t.Fatal("a full lane took a third line")
	}
	select {
	case <-l.Wake():
	default:
		t.Fatal("the writer was not woken")
	}
	got := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(io.LimitReader(far, 8))
		got <- string(b)
	}()
	if err := l.Flush(time.Second); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if s := <-got; s != "one\ntwo\n" {
		t.Fatalf("the writer wrote %q", s)
	}
	l.Close()
	if _, ok := l.Push(append(l.Buf(), "late\n"...)); ok {
		t.Fatal("a closed lane took a line")
	}
	near.Close()
}

// TestCloseSweepsLateInbound: an inbound connection whose hello is read
// after Close has swept the inbound map is dropped, not registered where
// no one will close it: its heartbeats would keep its reader, and Close's
// wait, alive for ever.
func TestCloseSweepsLateInbound(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	nd := nodes[0]
	nd.Close()

	near, far := net.Pipe()
	defer far.Close()
	stop := make(chan struct{})
	defer close(stop)
	go io.Copy(io.Discard, far) // heartbeat acks
	go func() {
		hb, _ := AppendFrame(nil, FrameHello, appendHello(nil, hello{pid: 1, n: 2, incarnation: 1}))
		for {
			if _, err := far.Write(hb); err != nil {
				return
			}
			hb = nd.appendHeartbeat(nil)
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	done := make(chan struct{})
	nd.wg.Add(1)
	go func() {
		nd.serveInbound(near)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		near.Close() // let the reader go
		t.Fatal("an inbound connection served after Close outlived it")
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
