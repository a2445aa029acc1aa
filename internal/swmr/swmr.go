// Package swmr provides an asynchronous single-writer multi-reader (SWMR)
// shared-memory substrate: the system model of §2 item 4 and the foundation
// for the atomic-snapshot object (§2 item 5), the adopt-commit protocol
// (§4.2), and Theorem 3.3's detector construction.
//
// Each process runs as its own coroutine and accesses memory only through
// Proc.Read / Proc.Write / Proc.Collect. A cooperative scheduler serializes
// the operations: every register operation is one atomic step, and an
// explicit core.Chooser decides which pending operation executes next. This
// yields linearizable registers by construction, full control over
// interleavings (seeded random, round-robin, or exhaustive exploration for
// model checking), and precise crash injection (a crashed process's next
// operation fails with ErrCrashed and is never scheduled again).
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

// Seeded returns core.Rand's chooser at this package's pinned seeding.
func Seeded(seed int64) core.Chooser {
	r := core.RandState(uint64(seed)*2685821657736338717 + 1)
	return r.Choose
}

// Body is the protocol code one process runs. It must access shared state
// only through p and must return promptly once an operation reports
// ErrCrashed.
type Body func(p *Proc) (core.Value, error)

// Config tunes an execution.
type Config struct {
	// Chooser decides scheduling; nil means Seeded(1).
	Chooser core.Chooser

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

// memory is the shared state: every register in one slice, row by row — a
// register name gets its row on first use, and cells[row*n+owner] is
// owner's register — and the Atomic objects by name.
type memory struct {
	n       int
	names   []string // names[row]: a protocol uses a handful, so no map
	cells   []core.Value
	objects map[string]core.Value
}

// cell returns owner's register name, adding a row for a new name. Rows
// are searched newest first: protocols that name registers per round or
// per instance keep using the ones they made last.
func (m *memory) cell(owner core.PID, name string) *core.Value {
	row := len(m.names) - 1
	for row >= 0 && m.names[row] != name {
		row--
	}
	if row < 0 {
		row = len(m.names)
		m.names = append(m.names, name)
		m.cells = append(m.cells, make([]core.Value, m.n)...)
	}
	return &m.cells[row*m.n+int(owner)]
}

// opKind is the register operation a request asks for.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opAtomic
	opCollect
)

// request is a process's one outstanding operation, as data. It lives
// inside its Proc and is refilled per operation: the process writes it
// before posting it and yielding, and the baton holder that applies it
// writes res before waking the process. A collect is one request for n
// reads: each holder that applies a read writes into and advances owner,
// the process parked, and only the last read, or a failure, wakes it.
//
// Atomic's fn runs, like the Chooser, wherever the step runs — on the driver
// or on a body's coroutine: serialized and ordered, so it may keep
// unsynchronized state, but not tied to a goroutine.
type request struct {
	kind  opKind
	owner core.PID   // opRead, opCollect: whose register is read next; opWrite: the caller
	name  string     // the register, or the Atomic object
	v     core.Value // opWrite's value
	fn    func(state core.Value) (newState, result core.Value)
	into  []core.Value // opCollect: the caller's buffer, one entry per owner
	res   result
}

// apply performs the request on m and returns its result value.
func (r *request) apply(m *memory) core.Value {
	switch r.kind {
	case opWrite:
		*m.cell(r.owner, r.name) = r.v
		return nil
	case opAtomic:
		if m.objects == nil {
			m.objects = make(map[string]core.Value)
		}
		next, res := r.fn(m.objects[r.name])
		m.objects[r.name] = next
		return res
	case opCollect:
		r.into[r.owner] = *m.cell(r.owner, r.name)
		r.owner++
		return nil
	}
	return *m.cell(r.owner, r.name)
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
	p.req.kind, p.req.owner, p.req.name, p.req.v = opWrite, p.Me, name, v
	_, err := p.do()
	return err
}

// Read returns the current value of owner's register name (Bottom if never
// written).
func (p *Proc) Read(owner core.PID, name string) (core.Value, error) {
	p.req.kind, p.req.owner, p.req.name = opRead, owner, name
	return p.do()
}

// Atomic applies fn to the named auxiliary object's state in one scheduler
// step and returns fn's result. It models invoking a linearizable shared
// object that the system is ASSUMED to provide — e.g. the k-set-consensus
// oracle of Theorem 3.3, which cannot be built from registers (that
// impossibility is the very content of §3/§4). fn must be deterministic and,
// like a Chooser, not tied to a goroutine; the initial state is Bottom.
func (p *Proc) Atomic(name string, fn func(state core.Value) (newState, result core.Value)) (core.Value, error) {
	p.req.kind, p.req.name, p.req.fn = opAtomic, name, fn
	return p.do()
}

// Collect reads register name of every process into into[:N], one register
// operation per process in increasing PID order (Bottom for unwritten
// entries); into must hold at least N values. A collect is NOT atomic — it
// is n separate steps, as in the real model, each offered to the Chooser
// and counted towards a crash like a Read — but the process parks once:
// the holder that applies a read stays on for the next, and only the last
// read, or the first that fails, wakes the caller. The reads are written
// into the buffer while the caller is parked, so no other body may share
// it; after an error it holds the reads made before the failure.
func (p *Proc) Collect(name string, into []core.Value) error {
	p.req.kind, p.req.owner, p.req.name, p.req.into = opCollect, 0, name, into[:p.N]
	_, err := p.do()
	return err
}

// do posts the request the caller has filled in and waits for its result.
func (p *Proc) do() (core.Value, error) {
	p.sched.pending[p.Me] = &p.req
	p.sched.baton.Yield(p.Me)
	return p.req.res.v, p.req.res.err
}

// sched is the scheduler state. Only the baton's holder — the driver, or the
// body whose coroutine is running (internal/baton) — touches it, and a body
// only to post into its own pending[pid].
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
// There is no scheduler goroutine: Run spawns the bodies and drives them,
// each on a coroutine, and a body that posts an operation takes the
// scheduler's step itself (internal/baton).
func Run(n int, cfg Config, body Body) (*Outcome, error) {
	if n <= 0 {
		return nil, fmt.Errorf("swmr: invalid process count %d", n)
	}
	s := &sched{
		cfg:      cfg,
		mem:      memory{n: n},
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
// on a posted operation, it returns the one whose operation it applied —
// for a collect, the last read or the one that failed; a read before it
// leaves the collect posted and the loop steps on.
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
		s.step++
		if s.step > s.cfg.maxSteps && s.abort == nil {
			s.abort = ErrMaxSteps
		}
		if req.kind == opCollect && req.res.err == nil && int(req.owner) < len(req.into) {
			continue // reads left: the collect stays posted
		}
		s.pending[pick] = nil
		return pick, false
	}
	return -1, true
}
