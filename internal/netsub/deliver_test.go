package netsub

import (
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msgnet"
)

// TestSendBytesInlineAllocatesNothing: SendBytes to an idle, connected
// peer frames the bytes straight into the lane's scratch and writes them
// from the caller's goroutine, allocating nothing. It copies the caller's
// bytes before it returns: the caller overwrites them between sends, and
// every frame's payload is what they held at its send.
func TestSendBytesInlineAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation pin: the race detector allocates")
	}
	nd, br := laneToTest(t, nil)
	msg := []byte("a proposal-sized payload #0")
	frame, _ := AppendFrame(nil, FrameData, msg)
	const runs = 1000 // AllocsPerRun sends once more, to warm up
	got := make([]byte, (runs+1)*len(frame))
	read := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(br, got)
		read <- err
	}()
	sent := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		msg[len(msg)-1] = '0' + byte(sent%10)
		if err := nd.SendBytes(1, msg); err != nil {
			t.Fatalf("send: %v", err)
		}
		msg[len(msg)-1] = 'x' // the lane must not still be reading it
		sent++
	}); allocs != 0 {
		t.Fatalf("an inline SendBytes allocates %.1f objects, want 0", allocs)
	}
	if err := <-read; err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := 0; i <= runs; i++ {
		f, n, err := DecodeFrame(got[i*len(frame):])
		if err != nil || n != len(frame) || f.Kind != FrameData {
			t.Fatalf("frame %d: %v, %d bytes, kind %v", i, err, n, f.Kind)
		}
		if want := "a proposal-sized payload #" + string(rune('0'+i%10)); string(f.Payload) != want {
			t.Fatalf("frame %d carries %q, want %q", i, f.Payload, want)
		}
	}
}

// TestRecvPayloadSurvivesNextFrame: the queue behind Recv holds decoded
// copies. Two frames of the same size arrive on one connection, whose
// reader reads the second into the buffer the first was read into; the
// first, still queued, is intact.
func TestRecvPayloadSurvivesNextFrame(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	first, second := rm("first frame"), rm("other bytes")
	for _, m := range []msgnet.RoundMsg{first, second} {
		if err := nodes[0].Send(1, m); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	waitFor(t, "both frames read", func() bool { return nodes[1].Stats().FramesReceived == 2 })
	for _, want := range []msgnet.RoundMsg{first, second} {
		if env := recvFrom(t, nodes[1], 0, time.Second); env.Payload != want {
			t.Fatalf("received %#v, want %#v", env.Payload, want)
		}
	}
}

// TestDeliverHandsRawPayload: with Config.Deliver set, a data frame's
// payload goes to the handler exactly as framed, from the peer's
// connection: the bytes SendBytes was given, and a Send's round message in
// AppendValue's encoding.
func TestDeliverHandsRawPayload(t *testing.T) {
	type got struct {
		from    core.PID
		payload []byte
	}
	in := make(chan got, 4)
	nodes := startMesh(t, 2, func(i int, c *Config) {
		if i == 1 {
			c.Deliver = func(from core.PID, payload []byte) {
				in <- got{from, append([]byte(nil), payload...)} // valid only until we return
			}
		}
	})
	if err := nodes[0].SendBytes(1, []byte("over the wire")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := nodes[0].Send(1, rm(42)); err != nil {
		t.Fatalf("send: %v", err)
	}
	want := map[core.PID][]string{0: {"over the wire", ""}}
	for range 2 {
		var g got
		select {
		case g = <-in:
		case <-time.After(5 * time.Second):
			t.Fatal("a frame never reached Deliver")
		}
		if len(want[g.from]) == 0 {
			t.Fatalf("an extra frame from p%d: %x", g.from, g.payload)
		}
		w := want[g.from][0]
		want[g.from] = want[g.from][1:]
		if w == "" { // the round message
			if v, n, err := DecodeValue(g.payload); err != nil || n != len(g.payload) || v != rm(42) {
				t.Fatalf("the round message arrived as %x: DecodeValue %v, %d bytes, %v", g.payload, v, n, err)
			}
			continue
		}
		if string(g.payload) != w {
			t.Fatalf("from p%d: %q, want %q", g.from, g.payload, w)
		}
	}
}

// TestSendBytesToSelfIsRefused: a node never sends itself bytes. SendBytes
// to its own pid fails, Deliver never runs, and no frame is counted.
func TestSendBytesToSelfIsRefused(t *testing.T) {
	var calls atomic.Int64
	nodes := startMesh(t, 2, func(i int, c *Config) {
		c.Deliver = func(core.PID, []byte) { calls.Add(1) }
	})
	if err := nodes[1].SendBytes(1, []byte("to self")); err == nil {
		t.Fatal("SendBytes to self succeeded")
	}
	if err := nodes[1].SendBytes(0, []byte("to a peer")); err != nil {
		t.Fatalf("send to a peer: %v", err)
	}
	waitFor(t, "the peer's frame", func() bool { return calls.Load() == 1 })
	if st := nodes[1].Stats(); st.FramesSent != 1 || st.FramesReceived != 0 {
		t.Fatalf("after one refused and one sent frame: %+v", st)
	}
}
