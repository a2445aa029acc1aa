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
// connections but never drains a byte, and pins the defense ladder in
// order: the bounded queue fills and sheds with BackpressureError first;
// only after the flow monitor has watched evictAfter windows of zero
// progress does the peer escalate to PeerEvictedError — and from then on
// every send sheds immediately. The queue-depth histogram must show the
// saturation the sheds imply.
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
		c.evictAfter = 3
		c.flowWindow = 10 * time.Millisecond
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

	var sawBackpressure, sawEvicted bool
	deadline := time.Now().Add(10 * time.Second)
	for !sawEvicted {
		if time.Now().After(deadline) {
			t.Fatalf("flow monitor never evicted the stalled peer (backpressure seen: %v)", sawBackpressure)
		}
		err := nodes[0].Send(1, "overload")
		switch {
		case err == nil:
		case errors.Is(err, ErrBackpressure):
			if sawEvicted {
				t.Fatal("backpressure after eviction: the ladder must not de-escalate")
			}
			sawBackpressure = true
		case errors.Is(err, ErrEvicted):
			if !sawBackpressure {
				t.Fatal("evicted before a single backpressure shed: eviction must be the escalation, not the first response")
			}
			sawEvicted = true
		default:
			t.Fatalf("unexpected send error %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}

	// Post-eviction: structured error, permanently.
	err := nodes[0].Send(1, "after")
	var ev *PeerEvictedError
	if !errors.As(err, &ev) || ev.To != 1 || ev.Strikes < 3 {
		t.Fatalf("post-eviction send: %v (%+v)", err, ev)
	}
	if !nodes[0].peers[1].evicted.Load() {
		t.Fatal("peer 1 not marked evicted after PeerEvictedError")
	}

	st := nodes[0].Stats()
	if st.Sheds == 0 {
		t.Fatalf("no sheds counted under sustained overload: %+v", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want exactly 1", st.Evictions)
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
