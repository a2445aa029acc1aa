package baton

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// relayRace is the smallest scheduler: every body posts ops operations, a
// step applies the lowest posted one, and when the first generation has
// returned a second one is spawned all at once, from inside a step.
type relayRace struct {
	b         *Baton
	n, ops    int
	posted    []bool
	applied   []int
	gens      int
	computing int // bodies started and neither parked nor returned
	aborted   bool
	panicAt   int // panic in the step that would apply this operation, 0: never
	steps     int
}

func (s *relayRace) body(pid core.PID) func() (core.Value, error) {
	return func() (core.Value, error) {
		s.computing++
		for k := 0; k < s.ops && !s.aborted; k++ {
			s.posted[pid] = true
			s.computing--
			s.b.Yield(pid)
			s.computing++
		}
		s.computing--
		return s.gens, nil
	}
}

func (s *relayRace) spawnAll() {
	s.gens++
	for pid := 0; pid < s.n; pid++ {
		s.b.Go(core.PID(pid), s.body(core.PID(pid)))
	}
}

func (s *relayRace) step(abort error) (core.PID, bool) {
	if s.computing != 0 {
		panic("a step beside a computing body")
	}
	s.aborted = abort != nil
	if s.b.Live() == 0 {
		if s.gens == 2 || s.aborted {
			return -1, true
		}
		s.spawnAll()
		return -1, false
	}
	for pid, posted := range s.posted {
		if posted {
			if s.steps+1 == s.panicAt {
				s.panicAt = 0
				panic("boom")
			}
			s.steps++
			s.applied[pid]++
			s.posted[pid] = false
			return core.PID(pid), false
		}
	}
	panic("a step with nothing posted and bodies still out")
}

func run(n, ops, panicAt int) (s *relayRace, values map[core.PID]core.Value, panicked any) {
	s = &relayRace{n: n, ops: ops, posted: make([]bool, n), applied: make([]int, n), panicAt: panicAt}
	s.b = New(n, s.step)
	s.spawnAll()
	defer func() { panicked = recover() }()
	values, _ = s.b.Wait()
	return s, values, nil
}

// TestStepRunsWithEveryBodyParked: every posted operation is applied exactly
// once, by a step that ran with no body computing beside it (the step
// panics otherwise, and the race detector judges "beside": relayRace's state
// is unsynchronized), across a start-up of n bodies and a spawn of n more
// from inside a step; and the run leaves no goroutine but idle coroutines.
func TestStepRunsWithEveryBodyParked(t *testing.T) {
	base := busy()
	for round := 0; round < 50; round++ {
		s, values, panicked := run(5, 20, 0)
		if panicked != nil {
			t.Fatal(panicked)
		}
		for pid, got := range s.applied {
			if got != 2*s.ops || values[core.PID(pid)] != 2 {
				t.Fatalf("p%d: %d operations applied, want %d; returned %v, want the second generation's 2", pid, got, 2*s.ops, values[core.PID(pid)])
			}
		}
	}
	settle(t, base)
}

// TestPanicInStepIsRelayed: a panic out of Step aborts the execution, every
// body still returns, and Wait raises the value on its caller.
func TestPanicInStepIsRelayed(t *testing.T) {
	base := busy()
	if _, _, panicked := run(5, 20, 33); panicked != "boom" {
		t.Fatalf("Wait panicked with %v, want boom", panicked)
	}
	settle(t, base)
}

// TestPoolReusesCoroutines: a warm execution creates no goroutine, and
// allocates at most once a body — its closure — besides what does not grow
// with n. A run spawns two generations: 2n bodies.
func TestPoolReusesCoroutines(t *testing.T) {
	allocs := func(n int) float64 {
		run(n, 3, 0)
		base := runtime.NumGoroutine()
		a := testing.AllocsPerRun(20, func() { run(n, 3, 0) })
		if got := runtime.NumGoroutine(); got > base {
			t.Fatalf("n=%d: %d goroutines after warm runs, %d before", n, got, base)
		}
		return a
	}
	small, large := allocs(4), allocs(8)
	if perBody := (large - small) / (2*8 - 2*4); perBody > 1 {
		t.Fatalf("%.0f allocations at n=4, %.0f at n=8: %.2f a body, want at most its closure", small, large, perBody)
	}
}

// busy counts the goroutines other than the idle pooled coroutines.
func busy() int {
	free.Lock()
	defer free.Unlock()
	return runtime.NumGoroutine() - len(free.list)
}

// settle checks that the runs since base left no goroutine behind but idle
// coroutines: a body's is back on the free list by the time Wait returns,
// so there is nothing to wait for.
func settle(t *testing.T, base int) {
	t.Helper()
	if got := busy(); got > base {
		t.Fatalf("%d goroutines besides idle coroutines, %d before", got, base)
	}
}
