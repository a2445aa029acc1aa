package par

import (
	"context"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/obs/hist"
)

// TestMeter: an installed meter sees one task-latency and one queue-depth
// sample per task, at every worker count, without changing results.
func TestMeter(t *testing.T) {
	reg := hist.NewRegistry()
	SetMeter(&Meter{TaskNS: reg.Get("par_task_ns"), QueueDepth: reg.Get("par_queue_depth")})
	defer SetMeter(nil)

	for _, workers := range []int{1, 4} {
		before := reg.Get("par_task_ns").Count()
		out, err := Map(workers, 10, func(i int) int { return i * i })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		if got := reg.Get("par_task_ns").Count() - before; got != 10 {
			t.Fatalf("workers=%d: %d task samples, want 10", workers, got)
		}
	}
	qd := reg.Get("par_queue_depth").Snapshot()
	if qd.Count != 20 || qd.Max != 10 {
		t.Fatalf("queue depth count=%d max=%d, want 20/10", qd.Count, qd.Max)
	}
}

// TestWorkerLabels: worker goroutines carry the par_worker pprof label
// while tasks run (visible in the labeled goroutine profile).
func TestWorkerLabels(t *testing.T) {
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := Map(2, 2, func(i int) struct{} {
			started <- struct{}{}
			<-release
			return struct{}{}
		})
		done <- err
	}()
	<-started
	<-started

	var buf strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"par_worker"`) {
		t.Fatalf("goroutine profile lacks par_worker labels:\n%s", buf.String())
	}
}

// TestSerialMapKeepsCallerLabels: workers=1 runs the tasks on the caller's
// goroutine as it is, pprof labels included, and leaves them in place.
func TestSerialMapKeepsCallerLabels(t *testing.T) {
	labeled := func() bool {
		var buf strings.Builder
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatal(err)
		}
		return strings.Contains(buf.String(), `"outer":"x"`)
	}
	pprof.Do(context.Background(), pprof.Labels("outer", "x"), func(context.Context) {
		if !labeled() {
			t.Fatal("no outer label before Map")
		}
		var during bool
		if _, err := Map(1, 1, func(int) struct{} { during = labeled(); return struct{}{} }); err != nil {
			t.Fatal(err)
		}
		if !during || !labeled() {
			t.Fatalf("outer label during the task: %v, after Map: %v; want both", during, labeled())
		}
	})
}
