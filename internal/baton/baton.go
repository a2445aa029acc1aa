//go:build go1.23

// The constraint raises this file's language version to the one iter needs.
// The module's go line stays at 1.22 while bench/go.mod, a module that
// requires this one, does: go refuses a dependency newer than its main
// module.

// Package baton is the hand-over skeleton of the two virtual substrates
// (internal/msgnet, internal/swmr): a cooperative scheduler with one driver.
// Wait's caller drives the execution, and each process body runs on a
// coroutine (iter.Pull), so the driver and the bodies run one at a time. A
// body that posts an operation takes the scheduler's step itself, in place:
// when the step picks the body's own operation it carries on; otherwise it
// switches to the driver, naming the picked process, and the driver resumes
// that one. A body that returns switches to the driver, which takes the next
// step. A hand-over is two coroutine switches; a self-pick is none.
//
// A step runs only with every live body parked on a posted operation: a body
// spawned with Go runs first when the driver starts it, and a body that
// posts while a spawned one has not yet started switches to the driver
// instead of stepping.
//
// Coroutines are pooled. A finished body's coroutine goes back on a free
// list and the next Go reuses it, its stack already grown, so the list never
// holds more coroutines than the most bodies that were live at once. A
// pooled coroutine is a goroutine created by the execution that first needed
// it, and keeps that goroutine's pprof labels whoever resumes it later.
package baton

import (
	"errors"
	"iter"
	"sync"

	"repro/internal/core"
)

var errPanicked = errors.New("baton: a process body or a scheduler callback panicked")

// Baton runs one execution of n processes.
type Baton struct {
	step     func(abort error) (core.PID, bool)
	seats    []seat     // by pid
	fresh    []core.PID // spawned and not yet started, in spawn order
	live     int        // bodies spawned and not yet returned
	wakes    int        // hand-overs that resumed a parked process, read by tests
	over     bool       // step has reported done
	panicked any        // the first panic, for Wait to raise again
}

// seat is one pid's coroutine and return.
type seat struct {
	co  *coroutine // running the current incarnation's body; nil once it returned
	out core.Value // the latest incarnation's return
	err error
}

// New returns a baton for n processes: its creator spawns the first bodies
// with Go, then calls Wait. step is the scheduler: called on the driver or on
// a body's coroutine, one call at a time, with every live process parked on
// a posted operation. It takes scheduler steps until it has applied the
// operation of one of them, whose pid it returns; or until it has spawned
// bodies with Go and returns a negative pid; or until the execution is over
// (done). abort is nil until a body or step itself has panicked: from then
// on step must fail every posted and later operation and call nothing of its
// caller's again, and a panic must leave every posted operation posted.
func New(n int, step func(abort error) (next core.PID, done bool)) *Baton {
	return &Baton{step: step, seats: make([]seat, n), fresh: make([]core.PID, 0, n)}
}

// Go spawns a body of process pid, to start before the next step. Only the
// creator before Wait, or step, may call it.
func (b *Baton) Go(pid core.PID, body func() (core.Value, error)) {
	c := get()
	c.b, c.pid, c.body = b, pid, body
	b.seats[pid].co = c
	b.fresh = append(b.fresh, pid)
	b.live++
}

// Live is the number of bodies spawned and not yet returned, for step.
func (b *Baton) Live() int { return b.live }

// Yield is called by process pid's body once it has posted an operation, and
// returns once the operation has been applied.
func (b *Baton) Yield(pid core.PID) {
	c := b.seats[pid].co
	next := core.PID(-1)
	for next < 0 && len(b.fresh) == 0 && !b.over {
		next, b.over = b.hold()
	}
	if next == pid {
		return
	}
	if next >= 0 {
		b.wakes++
	}
	c.yield(next)
}

// Wait drives the execution until step reports done. It raises the first
// panic of the execution, if any, on the caller; otherwise it returns what
// each process's body returned.
func (b *Baton) Wait() (map[core.PID]core.Value, map[core.PID]error) {
	for next := core.PID(-1); next >= 0 || len(b.fresh) > 0 || !b.over; {
		switch {
		case next >= 0:
			next = b.resume(next)
		case len(b.fresh) > 0:
			pid := b.fresh[0]
			b.fresh = append(b.fresh[:0], b.fresh[1:]...)
			next = b.resume(pid)
		default:
			if next, b.over = b.hold(); next >= 0 {
				b.wakes++
			}
		}
	}
	if b.panicked != nil {
		panic(b.panicked)
	}
	values, errs := make(map[core.PID]core.Value, len(b.seats)), make(map[core.PID]error)
	for pid, s := range b.seats {
		if s.err != nil {
			errs[core.PID(pid)] = s.err
		} else {
			values[core.PID(pid)] = s.out
		}
	}
	return values, errs
}

// resume switches to pid's coroutine until it switches back, and returns the
// pid it names (negative: none). A coroutine whose body has returned goes
// back on the free list.
func (b *Baton) resume(pid core.PID) core.PID {
	c := b.seats[pid].co
	next, _ := c.resume()
	if c.body == nil {
		b.seats[pid].co = nil
		b.live--
		put(c)
	}
	return next
}

func (b *Baton) hold() (next core.PID, done bool) {
	next = -1
	defer b.relay()
	if b.panicked != nil {
		return b.step(errPanicked)
	}
	return b.step(nil)
}

// relay, deferred around the caller's code, turns a panic into an abort: the
// first value is kept for Wait and the execution unwinds like any aborted
// one, so that no body is left parked.
func (b *Baton) relay() {
	if v := recover(); v != nil && b.panicked == nil {
		b.panicked = v
	}
}

// coroutine runs one body after another, each to its return, switching to
// the driver in between.
type coroutine struct {
	resume func() (core.PID, bool) // from the driver: run until the next switch back
	yield  func(core.PID) bool     // from the body: switch back, naming the pid to resume
	b      *Baton
	pid    core.PID
	body   func() (core.Value, error) // nil once it has returned
}

func (c *coroutine) loop(yield func(core.PID) bool) {
	c.yield = yield
	for {
		c.run()
		c.body = nil
		yield(-1)
	}
}

func (c *coroutine) run() {
	defer c.b.relay()
	out, err := c.body()
	c.b.seats[c.pid].out, c.b.seats[c.pid].err = out, err
}

// free holds the idle coroutines, each parked between two bodies. It is not
// a sync.Pool: a coroutine the pool dropped would stay parked for good.
var free struct {
	sync.Mutex
	list []*coroutine
}

func get() *coroutine {
	free.Lock()
	if k := len(free.list) - 1; k >= 0 {
		c := free.list[k]
		free.list = free.list[:k]
		free.Unlock()
		return c
	}
	free.Unlock()
	c := new(coroutine)
	c.resume, _ = iter.Pull(c.loop)
	return c
}

func put(c *coroutine) {
	c.b = nil
	free.Lock()
	free.list = append(free.list, c)
	free.Unlock()
}
