// Package baton is the hand-over skeleton of the two virtual substrates
// (internal/msgnet, internal/swmr): a cooperative scheduler whose state no
// goroutine owns. Each process body runs on its own goroutine; the one that
// was the last to stop computing — by posting an operation or by returning
// from its body — holds the baton and takes the scheduler's steps itself.
// When a step picks the holder's own operation it carries on; otherwise it
// wakes the picked process and parks: one goroutine switch per operation,
// none on a self-pick.
//
// The counters are the only state touched concurrently (bodies compute in
// parallel before their first operation, and one step can spawn several
// restarts). Everything else goes from holder to holder, ordered by them.
package baton

import (
	"errors"
	"sync/atomic"

	"repro/internal/core"
)

var errPanicked = errors.New("baton: a process body or a scheduler callback panicked")

// Baton runs one execution of n processes. Its creator holds it first.
type Baton struct {
	step      func(abort error) (core.PID, bool)
	seats     []chan struct{} // by pid, capacity 1: waking a process never waits for it
	returns   []result        // by pid; the latest incarnation's return wins
	done      chan struct{}
	wakes     int                 // hand-overs that woke a parked process; the holder's, read by tests
	computing atomic.Int32        // goroutines running body code, plus one for the holder
	live      atomic.Int32        // bodies started and not yet returned
	panicked  atomic.Pointer[any] // the first panic, for Wait to raise again
}

type result struct {
	out core.Value
	err error
}

// New returns a baton held by the caller. step is the scheduler: called by
// one goroutine at a time, each call ordered after the one before, with every
// live process parked on a posted operation. It takes scheduler steps until
// it has applied the operation of one of them, whose pid it returns; or until
// it has spawned bodies with Go — which it does last, touching no state
// afterwards — and returns a negative pid; or until the execution is over
// (done). abort is nil until a body or step itself has panicked: from then
// on step must fail every posted and later operation and call nothing of its
// caller's again, and a panic must leave every posted operation posted.
func New(n int, step func(abort error) (next core.PID, done bool)) *Baton {
	b := &Baton{step: step, seats: make([]chan struct{}, n), returns: make([]result, n), done: make(chan struct{})}
	for i := range b.seats {
		b.seats[i] = make(chan struct{}, 1)
	}
	b.computing.Store(1)
	return b
}

// Go runs a body of process pid on a new goroutine. Only the holder may call
// it: the creator before Wait, or step.
func (b *Baton) Go(pid core.PID, body func() (core.Value, error)) {
	b.computing.Add(1)
	b.live.Add(1)
	go func() {
		func() {
			defer b.relay()
			out, err := body()
			b.returns[pid] = result{out, err}
		}()
		b.live.Add(-1)
		b.arrive(-1)
	}()
}

// Live is the number of bodies started and not yet returned, for step.
func (b *Baton) Live() int { return int(b.live.Load()) }

// Yield is called by process pid once it has posted an operation, and returns
// once the operation has been applied.
func (b *Baton) Yield(pid core.PID) {
	if !b.arrive(pid) {
		<-b.seats[pid]
	}
}

// Wait lets go of the creator's hold and waits until step reports done. It
// raises the first panic of the execution, if any, on the caller; otherwise
// it returns what each process's body returned.
func (b *Baton) Wait() (map[core.PID]core.Value, map[core.PID]error) {
	b.arrive(-1)
	<-b.done
	if v := b.panicked.Load(); v != nil {
		panic(*v)
	}
	values, errs := make(map[core.PID]core.Value, len(b.returns)), make(map[core.PID]error)
	for pid, r := range b.returns {
		if r.err != nil {
			errs[core.PID(pid)] = r.err
		} else {
			values[core.PID(pid)] = r.out
		}
	}
	return values, errs
}

// arrive is called by a goroutine that stopped computing (me < 0: not a
// process with an operation posted). The last one in holds the baton: it
// steps until its own operation is picked (true) or it has handed over —
// woken the picked process, closed done, or left the baton to the last of
// the bodies it spawned.
func (b *Baton) arrive(me core.PID) bool {
	for b.computing.Add(-1) == 0 {
		b.computing.Store(1) // the holder; passed on to whoever it wakes
		switch next, done := b.hold(); {
		case done:
			close(b.done)
			return false
		case next < 0:
		case next == me:
			return true
		default:
			b.wakes++
			b.seats[next] <- struct{}{}
			return false
		}
	}
	return false
}

func (b *Baton) hold() (next core.PID, done bool) {
	next = -1
	defer b.relay()
	if b.panicked.Load() != nil {
		return b.step(errPanicked)
	}
	return b.step(nil)
}

// relay, deferred around the caller's code, turns a panic into an abort: the
// first value is kept for Wait and the execution unwinds like any aborted
// one, so that no goroutine is left parked.
func (b *Baton) relay() {
	if v := recover(); v != nil {
		first := v // a copy: taking v's own address would allocate on every call
		b.panicked.CompareAndSwap(nil, &first)
	}
}
