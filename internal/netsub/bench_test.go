package netsub

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msgnet"
)

// BenchmarkNetsubRoundTrip measures one request/response exchange
// between two loopback TCP nodes through the full pipeline — value
// codec, framing, bounded queue, writer goroutine, kernel socket,
// inbound reader, recv queue — the per-message cost floor of the
// network substrate.
func BenchmarkNetsubRoundTrip(b *testing.B) {
	mk := func(me core.PID, addrs []string, lns []net.Listener) *Node {
		cfg := Config{
			Me: me, N: 2, Addrs: addrs, Listener: lns[me],
			HeartbeatEvery: -1, // isolate the data path
			SendQueue:      256,
			WriteTimeout:   5 * time.Second,
		}
		nd, err := Start(cfg)
		if err != nil {
			b.Fatalf("start p%d: %v", me, err)
		}
		return nd
	}
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	a, c := mk(0, addrs, lns), mk(1, addrs, lns)
	defer a.Close()
	defer c.Close()

	// Echo server: every value p0 sends comes straight back.
	go func() {
		for {
			env, err := c.Recv()
			if err != nil {
				return
			}
			for {
				err := c.Send(0, env.Payload)
				if err == nil {
					break
				}
				if errors.Is(err, ErrClosed) {
					return
				}
			}
		}
	}()

	// Warm the connections so the benchmark measures steady state.
	if err := a.Send(1, 0); err != nil {
		b.Fatalf("warm-up send: %v", err)
	}
	if _, err := a.Recv(); err != nil {
		b.Fatalf("warm-up recv: %v", err)
	}

	msg := msgnet.RoundMsg{Round: 1, Value: "bench-payload"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a.Send(1, msg) != nil {
		}
		if _, err := a.Recv(); err != nil {
			b.Fatalf("recv: %v", err)
		}
	}
}
