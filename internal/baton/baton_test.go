package baton

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// relayRace is the smallest scheduler: every body posts ops operations, a
// step applies the lowest posted one, and when the first generation has
// returned a second one is spawned all at once — the step during which
// bodies compute beside the holder.
type relayRace struct {
	b       *Baton
	n, ops  int
	posted  []bool
	applied []int
	gens    int
	aborted bool
	panicAt int // panic in the step that would apply this operation, 0: never
	steps   int
}

func (s *relayRace) body(pid core.PID, spin int) func() (core.Value, error) {
	return func() (core.Value, error) {
		for i := 0; i < spin; i++ {
			runtime.Gosched()
		}
		for k := 0; k < s.ops && !s.aborted; k++ {
			s.posted[pid] = true
			s.b.Yield(pid)
		}
		return s.gens, nil
	}
}

func (s *relayRace) spawnAll() {
	s.gens++
	for pid := 0; pid < s.n; pid++ {
		s.b.Go(core.PID(pid), s.body(core.PID(pid), (pid*3+s.gens)%4))
	}
}

func (s *relayRace) step(abort error) (core.PID, bool) {
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

// TestLastOneInHolds: whatever the order of arrival, every posted operation
// is applied exactly once, by a step that ran alone (the race detector is
// the judge of "alone": relayRace's state is unsynchronized), across a
// start-up of n bodies and a spawn of n more from inside a step.
func TestLastOneInHolds(t *testing.T) {
	base := runtime.NumGoroutine()
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
	waitFor(t, base)
}

// TestPanicInStepIsRelayed: a panic out of Step aborts the execution, every
// body still returns, and Wait raises the value on its caller.
func TestPanicInStepIsRelayed(t *testing.T) {
	base := runtime.NumGoroutine()
	if _, _, panicked := run(5, 20, 33); panicked != "boom" {
		t.Fatalf("Wait panicked with %v, want boom", panicked)
	}
	waitFor(t, base)
}

func waitFor(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
