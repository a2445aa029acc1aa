package netsub

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/hist"
)

// TestSustainedOverloadEscalation drives a sender at a peer that accepts
// connections but never drains a byte. The bounded queue fills and sheds
// with BackpressureError, and that is the whole defense: every send sees
// nil or backpressure, never a verdict on the peer, and the queue-depth
// histogram shows the saturation the sheds imply.
func TestSustainedOverloadEscalation(t *testing.T) {
	reg := hist.NewRegistry()
	var blackMu sync.Mutex
	var blackholes []net.Conn
	defer func() {
		blackMu.Lock()
		defer blackMu.Unlock()
		for _, c := range blackholes {
			c.Close()
		}
	}()

	const sendQueue = 4
	nodes := startMesh(t, 2, func(i int, c *Config) {
		c.SendQueue = sendQueue
		c.WriteTimeout = 20 * time.Millisecond
		if i == 0 {
			c.Hist = reg
			// A synchronous pipe nobody reads: every write blocks until
			// the WriteTimeout, so the queue never truly drains — the
			// sustained-overload shape, without kernel-buffer slack.
			c.dial = func(string) (net.Conn, error) {
				client, server := net.Pipe()
				blackMu.Lock()
				blackholes = append(blackholes, server)
				blackMu.Unlock()
				return client, nil
			}
		}
	})

	var sheds int
	for stop := time.Now().Add(200 * time.Millisecond); time.Now().Before(stop); {
		switch err := nodes[0].Send(1, "overload"); {
		case err == nil:
		case errors.Is(err, ErrBackpressure):
			sheds++
		default:
			t.Fatalf("send to a black hole: %v, want nil or backpressure", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if sheds == 0 {
		t.Fatal("no send was shed by a peer that never drains")
	}
	if st := nodes[0].Stats(); st.Sheds != int64(sheds) {
		t.Fatalf("Stats().Sheds = %d, want the %d sheds the sender saw", st.Sheds, sheds)
	}

	// The depth histogram must reflect saturation: the enqueue that fills
	// the last slot records depth == cap (a racing writer pop can shave
	// one off the snapshot, so allow cap-1 as the floor).
	snap := reg.Get("netsub_queue_depth").Snapshot()
	if snap.Count == 0 {
		t.Fatal("netsub_queue_depth recorded nothing")
	}
	if snap.Max < sendQueue-1 {
		t.Fatalf("queue-depth max %d never approached the cap %d", snap.Max, sendQueue)
	}
}
