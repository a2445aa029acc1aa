// Package swmr provides an asynchronous single-writer multi-reader (SWMR)
// shared-memory substrate: the system model of §2 item 4 and the foundation
// for the atomic-snapshot object (§2 item 5), the adopt-commit protocol
// (§4.2), and Theorem 3.3's detector construction.
//
// Each process runs as its own goroutine and accesses memory only through
// Proc.Read / Proc.Write. A cooperative scheduler serializes the operations:
// every register operation is one atomic step, and an explicit Chooser
// decides which pending operation executes next. This yields linearizable
// registers by construction, full control over interleavings (seeded random,
// round-robin, or exhaustive exploration for model checking), and precise
// crash injection (a crashed process's next operation fails with ErrCrashed
// and is never scheduled again).
package swmr

import (
	"errors"
	"fmt"

	"repro/internal/baton"
	"repro/internal/core"
)

// ErrCrashed is returned from a register operation when the scheduler has
// crashed the calling process. Protocol bodies must propagate it and return.
var ErrCrashed = errors.New("swmr: process crashed")

// ErrMaxSteps is returned by Run when the step budget is exhausted before
// all processes finish (a livelock guard).
var ErrMaxSteps = errors.New("swmr: step budget exhausted")

// Bottom is the initial value of every register (the paper's ⊥).
var Bottom core.Value = nil

// Chooser picks which pending operation runs next: it receives the global
// step number and the sorted PIDs with a pending operation, and returns an
// index into that slice. Choosers are the scheduling adversary. The slice is
// the scheduler's scratch: it is valid only during the call and must not be
// retained or modified.
//
// Calls are serialized and ordered by happens-before, but arrive on
// whichever process goroutine holds the scheduler: a Chooser may keep
// unsynchronized state (Seeded, RoundRobin and mc.Explore's do) but may not
// depend on goroutine identity (t.FailNow, runtime.LockOSThread).
type Chooser func(step int, runnable []core.PID) int

// Seeded returns a deterministic pseudo-random chooser.
func Seeded(seed int64) Chooser {
	// xorshift64* keeps the chooser allocation-free and reproducible.
	s := uint64(seed)*2685821657736338717 + 1
	return func(step int, runnable []core.PID) int {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return int((s * 2685821657736338717 >> 33) % uint64(len(runnable)))
	}
}

// PriorityGroups returns a chooser that always schedules within the
// earliest listed group that has a runnable process, rotating round-robin
// inside the group; runnable processes in no group run last. This expresses
// "run these to completion before those" adversaries — e.g. the schedule
// that witnesses the Corollary 4.4 lower bound.
func PriorityGroups(groups ...[]core.PID) Chooser {
	counter := 0
	return func(step int, runnable []core.PID) int {
		for _, g := range groups {
			var idxs []int
			for i, p := range runnable {
				for _, q := range g {
					if p == q {
						idxs = append(idxs, i)
						break
					}
				}
			}
			if len(idxs) > 0 {
				counter++
				return idxs[counter%len(idxs)]
			}
		}
		return 0
	}
}

// Body is the protocol code one process runs. It must access shared state
// only through p and must return promptly once an operation reports
// ErrCrashed.
type Body func(p *Proc) (core.Value, error)

// Config tunes an execution.
type Config struct {
	// Chooser decides scheduling; nil means Seeded(1).
	Chooser Chooser

	// Crash maps a process to the number of register operations it
	// completes before crashing: Crash[p] = 0 crashes p's first
	// operation. Processes not present never crash.
	Crash map[core.PID]int

	// maxSteps bounds total scheduled operations; 0 means 1<<20.
	maxSteps int
}

// Outcome reports a finished execution.
type Outcome struct {
	// Values holds the return value of each process whose body returned
	// without error.
	Values map[core.PID]core.Value

	// Errs holds the body error of each process that returned one
	// (crashed processes report ErrCrashed).
	Errs map[core.PID]error

	// Steps is the number of register operations scheduled.
	Steps int

	// Crashed is the set of processes crashed by the scheduler.
	Crashed core.Set
}

type regKey struct {
	owner core.PID
	name  string
}

type memory struct {
	cells   map[regKey]core.Value
	objects map[string]core.Value
}

func (m *memory) read(k regKey) core.Value { return m.cells[k] }

func (m *memory) write(k regKey, v core.Value) { m.cells[k] = v }

// request is a process's one outstanding operation. It lives inside its
// Proc and is refilled per operation: the process writes it before posting
// it and yielding, and the baton holder that applies it writes res before
// waking the process.
//
// apply closures — Atomic's fn among them — run, like the Chooser, on
// whichever process goroutine holds the scheduler: serialized and ordered,
// so they may keep unsynchronized state, but not tied to a goroutine.
type request struct {
	apply func(m *memory) core.Value
	res   result
}

type result struct {
	v   core.Value
	err error
}

// Proc is one process's handle to the shared memory.
type Proc struct {
	// Me is this process's identity.
	Me core.PID

	// N is the number of processes.
	N int

	sched *sched
	req   request // the one outstanding operation, refilled by do
}

// Write sets the caller's register name. Only the owner may write a
// register; Write always writes p.Me's register.
func (p *Proc) Write(name string, v core.Value) error {
	k := regKey{owner: p.Me, name: name}
	_, err := p.do(func(m *memory) core.Value {
		m.write(k, v)
		return nil
	})
	return err
}

// Read returns the current value of owner's register name (Bottom if never
// written).
func (p *Proc) Read(owner core.PID, name string) (core.Value, error) {
	k := regKey{owner: owner, name: name}
	return p.do(func(m *memory) core.Value { return m.read(k) })
}

// Atomic applies fn to the named auxiliary object's state in one scheduler
// step and returns fn's result. It models invoking a linearizable shared
// object that the system is ASSUMED to provide — e.g. the k-set-consensus
// oracle of Theorem 3.3, which cannot be built from registers (that
// impossibility is the very content of §3/§4). fn must be deterministic and,
// like a Chooser, not tied to a goroutine; the initial state is Bottom.
func (p *Proc) Atomic(name string, fn func(state core.Value) (newState, result core.Value)) (core.Value, error) {
	return p.do(func(m *memory) core.Value {
		if m.objects == nil {
			m.objects = make(map[string]core.Value)
		}
		next, res := fn(m.objects[name])
		m.objects[name] = next
		return res
	})
}

// Collect reads register name of every process, one register operation per
// process in increasing PID order, and returns the n values (Bottom for
// unwritten entries). A collect is NOT atomic — it is n separate steps, as
// in the real model.
func (p *Proc) Collect(name string) ([]core.Value, error) {
	out := make([]core.Value, p.N)
	for i := 0; i < p.N; i++ {
		v, err := p.Read(core.PID(i), name)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (p *Proc) do(apply func(m *memory) core.Value) (core.Value, error) {
	p.req.apply = apply
	p.sched.pending[p.Me] = &p.req
	p.sched.baton.Yield(p.Me)
	return p.req.res.v, p.req.res.err
}

// sched is the scheduler state. No goroutine owns it: it is handed from one
// baton holder to the next (internal/baton), and only the holder touches it
// — but for a process posting into its own pending[pid].
type sched struct {
	cfg   Config // Chooser and maxSteps defaulted
	baton *baton.Baton
	mem   memory
	out   *Outcome

	// Indexed by pid.
	pending []*request // the outstanding operation, nil if none
	opsDone []int
	crashAt []int // operations completed before crashing; -1: never

	runnable []core.PID // scratch: the chooser's option list
	step     int
	abort    error // once set, all further ops fail so bodies unwind
}

// Run executes body at every process under the configured scheduler and
// returns once every process body has returned. It never leaks goroutines:
// crashed processes — and, after a step overflow, an out-of-range chooser
// answer or a panic in a body, the Chooser or an operation, all processes —
// receive ErrCrashed on their pending and subsequent operations, so
// well-formed bodies unwind promptly, and Run waits for all of them; a panic
// is then raised again on Run's caller.
//
// There is no scheduler goroutine: Run spawns the bodies and waits, and the
// process that was the last to stop computing takes the scheduler's steps
// (internal/baton).
func Run(n int, cfg Config, body Body) (*Outcome, error) {
	if n <= 0 {
		return nil, fmt.Errorf("swmr: invalid process count %d", n)
	}
	s := &sched{
		cfg:      cfg,
		mem:      memory{cells: make(map[regKey]core.Value)},
		out:      &Outcome{Crashed: core.NewSet(n)},
		pending:  make([]*request, n),
		opsDone:  make([]int, n),
		crashAt:  make([]int, n),
		runnable: make([]core.PID, 0, n),
	}
	if s.cfg.Chooser == nil {
		s.cfg.Chooser = Seeded(1)
	}
	if s.cfg.maxSteps == 0 {
		s.cfg.maxSteps = 1 << 20
	}
	for i := range s.crashAt {
		s.crashAt[i] = -1
	}
	for pid, limit := range cfg.Crash {
		if pid >= 0 && int(pid) < n {
			s.crashAt[pid] = max(limit, 0)
		}
	}

	s.baton = baton.New(n, s.run)
	for i := 0; i < n; i++ {
		p := &Proc{Me: core.PID(i), N: n, sched: s}
		s.baton.Go(p.Me, func() (core.Value, error) { return body(p) })
	}
	s.out.Values, s.out.Errs = s.baton.Wait()
	s.out.Steps = s.step
	return s.out, s.abort
}

// run is the baton's step function: called with every live process parked
// on a posted operation, it returns the one whose operation it applied.
func (s *sched) run(abort error) (core.PID, bool) {
	if abort != nil && s.abort == nil { // a panic: unwind
		s.abort = abort
	}
	for s.baton.Live() > 0 {
		runnable := s.runnable[:0]
		for pid, req := range s.pending {
			if req != nil {
				runnable = append(runnable, core.PID(pid))
			}
		}

		pick := runnable[0] // drain deterministically once aborting
		if s.abort == nil {
			idx := s.cfg.Chooser(s.step, runnable)
			if idx < 0 || idx >= len(runnable) {
				s.abort = fmt.Errorf("swmr: chooser returned %d for %d runnable", idx, len(runnable))
				continue
			}
			pick = runnable[idx]
		}
		req := s.pending[pick] // stays posted until applied: a panic below must not lose it

		switch {
		case s.abort != nil, s.crashAt[pick] >= 0 && s.opsDone[pick] >= s.crashAt[pick]:
			if s.abort == nil {
				s.out.Crashed.Add(pick)
			}
			req.res = result{err: ErrCrashed}
		default:
			req.res = result{v: req.apply(&s.mem)}
			s.opsDone[pick]++
		}
		s.pending[pick] = nil
		s.step++
		if s.step > s.cfg.maxSteps && s.abort == nil {
			s.abort = ErrMaxSteps
		}
		return pick, false
	}
	return -1, true
}
