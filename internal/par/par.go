// Package par is a deterministic worker-pool scheduler for independent
// seeded executions.
//
// Campaign drivers (chaos.Run, chaos.RunRecover) and the experiment seed
// sweeps all share one shape: N independent tasks, each a pure function of
// its index (the index selects a pre-drawn seed), whose results must be
// aggregated in index order so the output is byte-identical to a
// sequential loop. par.Map runs that shape over a bounded pool of worker
// goroutines:
//
//   - Order-preserving collection: results land in a slice indexed by task
//     index, so aggregation order never depends on goroutine scheduling.
//     workers=1 is the exact sequential loop (same goroutine, no channels).
//   - Per-task panic capture: a panicking task is caught in its worker and
//     surfaced as a *PanicError carrying the task index, panic value and
//     stack. The lowest-index panic wins, matching what a sequential loop
//     would have hit first.
//   - No shared state: par owns nothing but the work counter and an
//     optional Meter (task latency / queue depth histograms — sharded
//     atomics, order-free). Tasks must bring their own RNG and observer
//     state; the scheduler never introduces ordering between two tasks'
//     side effects. Workers run under a "par_worker" pprof label so CPU
//     profiles attribute campaign work to pool goroutines.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs/hist"
)

// Workers resolves a configured worker count: n > 0 is used as given; zero
// or negative means one worker per logical CPU (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Meter is the pool's optional instrumentation: task wall-time latency
// and the queue depth observed as each task starts (tasks not yet begun,
// including the starting one). Either histogram may be nil. Wall time
// flows only into histograms, never into task results, so metered
// campaigns keep their byte-identical output guarantee.
type Meter struct {
	TaskNS     *hist.Histogram
	QueueDepth *hist.Histogram
}

var meter atomic.Pointer[Meter]

// SetMeter installs (or with nil removes) the process-wide pool meter —
// the CLIs wire it to their telemetry registry. A Map picks up the meter
// installed at its start.
func SetMeter(m *Meter) { meter.Store(m) }

// labeled runs body on the current goroutine under a par_worker pprof
// label, so CPU profiles of campaigns attribute samples to pool workers.
func labeled(w int, body func()) {
	pprof.Do(context.Background(), pprof.Labels("par_worker", strconv.Itoa(w)),
		func(context.Context) { body() })
}

// PanicError reports a task that panicked inside Map or Sweep. Index is
// the task index, Value the recovered panic value, Stack the worker stack
// captured at recovery.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Map runs task(i) for every i in 0..n-1 across at most workers goroutines
// and returns the n results in index order. workers <= 0 means GOMAXPROCS;
// workers == 1 runs the tasks sequentially on the calling goroutine. If
// any task panics, Map still waits for every started task and then returns
// the results collected so far together with the lowest-index *PanicError.
func Map[T any](workers, n int, task func(i int) T) ([]T, error) {
	out := make([]T, n)
	panics := make([]*PanicError, n)
	m := meter.Load()
	call := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				panics[i] = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
			}
		}()
		if m != nil {
			if m.QueueDepth != nil {
				m.QueueDepth.Record(int64(n - i))
			}
			if m.TaskNS != nil {
				start := time.Now()
				defer func() { m.TaskNS.Record(time.Since(start).Nanoseconds()) }()
			}
		}
		out[i] = task(i)
	}

	if workers = Workers(workers); workers > n {
		workers = n
	}
	if workers <= 1 {
		labeled(0, func() {
			for i := 0; i < n; i++ {
				call(i)
			}
		})
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				labeled(w, func() {
					for {
						i := int(next.Add(1)) - 1
						if i >= n {
							return
						}
						call(i)
					}
				})
			}(w)
		}
		wg.Wait()
	}

	for _, p := range panics {
		if p != nil {
			return out, p
		}
	}
	return out, nil
}

// Sweep is Map for fallible tasks: it runs body(i) for every i in 0..n-1
// and returns the results in index order, or the lowest-index error (a
// task error, or a *PanicError if a task panicked). Like a sequential
// sweep with an early return, the first failure by index is the one
// reported — except that later tasks may already have run; their results
// are discarded.
func Sweep[T any](workers, n int, body func(i int) (T, error)) ([]T, error) {
	type slot struct {
		v   T
		err error
	}
	slots, err := Map(workers, n, func(i int) slot {
		v, err := body(i)
		return slot{v, err}
	})
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	for i, s := range slots {
		if s.err != nil {
			return nil, s.err
		}
		out[i] = s.v
	}
	return out, nil
}
