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
				multi.RunStart(n)
				for r := 1; r <= 3; r++ {
					multi.RoundStart(r, n)
					multi.Crash(r, nil)
					for p := 0; p < n; p++ {
						multi.Emit(r, p)
					}
					multi.Phase(r, "emit", time.Microsecond)
					for p := 0; p < n; p++ {
						multi.Suspect(r, p, suspects)
						multi.Deliver(r, p, n-1, 1)
						multi.Event("msgnet.send", r, p, map[string]any{"to": (p + 1) % n, "step": r})
					}
					multi.Phase(r, "deliver", time.Microsecond)
					multi.Phase(r, "round", 2*time.Microsecond)
				}
				multi.Decide(3, 0)
				multi.RunEnd(3, 1, nil)
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
