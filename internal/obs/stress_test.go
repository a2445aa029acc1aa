package obs_test

import (
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// TestMultiConcurrentStress hammers a Multi fan-out — Metrics + EventLog +
// Tracer — plus direct histogram recording from many goroutines at once.
// Run under -race (make race, CI) it is the data-race canary
// for the whole observer stack; the count checks catch lost updates.
func TestMultiConcurrentStress(t *testing.T) {
	metrics := obs.NewMetrics()
	events := obs.NewEventLog(io.Discard)
	tracer := trace.New()
	multi := obs.Multi(metrics, events, tracer)
	reg := metrics.Hist()
	wall := reg.Get("stress_wall_ns")

	const goroutines = 8
	const runs = 25
	const n = 5

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			suspects := []int{n - 1}
			for run := 0; run < runs; run++ {
				multi.Observe(obs.Event{Kind: obs.RunStart, R: -1, P: -1, N: n})
				for r := 1; r <= 3; r++ {
					multi.Observe(obs.Event{Kind: obs.RoundStart, R: r, P: -1, N: n})
					multi.Observe(obs.Event{Kind: obs.Crash, R: r, P: -1})
					for p := 0; p < n; p++ {
						multi.Observe(obs.Event{Kind: obs.Emit, R: r, P: p})
					}
					multi.Observe(obs.Event{Kind: obs.Phase, R: r, P: -1, Phase: "emit", Dur: time.Microsecond})
					for p := 0; p < n; p++ {
						multi.Observe(obs.Event{Kind: obs.Suspect, R: r, P: p, Members: suspects})
						multi.Observe(obs.Event{Kind: obs.Deliver, R: r, P: p, N: n - 1, M: 1})
						multi.Observe(obs.Event{Kind: "msgnet.send", R: r, P: p, Fields: map[string]any{"to": (p + 1) % n, "step": r}})
					}
					multi.Observe(obs.Event{Kind: obs.Phase, R: r, P: -1, Phase: "deliver", Dur: time.Microsecond})
					multi.Observe(obs.Event{Kind: obs.Phase, R: r, P: -1, Phase: "round", Dur: 2 * time.Microsecond})
				}
				multi.Observe(obs.Event{Kind: obs.Decide, R: 3, P: 0})
				multi.Observe(obs.Event{Kind: obs.RunEnd, R: -1, P: -1, N: 3, M: 1})
				wall.Record(int64(g*runs + run + 1))
			}
		}(g)
	}
	wg.Wait()

	s := metrics.Snapshot()
	const total = goroutines * runs
	if s.Runs != total {
		t.Fatalf("runs = %d, want %d", s.Runs, total)
	}
	if want := int64(total * 3 * n); s.Emits != want {
		t.Fatalf("emits = %d, want %d", s.Emits, want)
	}
	if want := int64(total * 3 * n); s.SuspicionsTotal != want {
		t.Fatalf("suspicions = %d, want %d", s.SuspicionsTotal, want)
	}
	if got := s.SuspectedCounts[n-1]; got != int64(total*3*n) {
		t.Fatalf("suspected_counts[%d] = %d, want %d", n-1, got, total*3*n)
	}
	if want := int64(total * 3 * n); s.Events["msgnet.send"] != want {
		t.Fatalf("msgnet.send events = %d, want %d", s.Events["msgnet.send"], want)
	}
	if got := s.Hist["deliver_fanin"].Count; got != int64(total*3*n) {
		t.Fatalf("deliver_fanin count = %d, want %d", got, total*3*n)
	}
	if got := s.Hist["round_ns"].Count; got != int64(total*3) {
		t.Fatalf("round_ns count = %d, want %d", got, total*3)
	}
	if got := wall.Count(); got != total {
		t.Fatalf("stress_wall_ns count = %d, want %d", got, total)
	}
	if tracer.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	// The tracer must still be exportable after concurrent abuse.
	if _, err := tracer.Perfetto(); err != nil {
		t.Fatal(err)
	}
}
