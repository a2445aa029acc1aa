// Package snapshot implements a wait-free atomic snapshot object on top of
// SWMR registers (after Afek, Attiya, Dolev, Gafni, Merritt and Shavit, JACM
// 1993 — reference [21] of the paper), plus the snapshot round protocol whose
// RRFD counterpart is §2 item 5: per-round suspect sets that are bounded by
// f, exclude the owner, and are totally ordered by containment.
//
// The object is the substrate for Theorem 4.1's and Theorem 4.3's simulation
// of synchronous rounds in an asynchronous system.
package snapshot

import (
	"repro/internal/core"
	"repro/internal/swmr"
)

// Cell is one process's component of the snapshot object.
type Cell struct {
	// Value is the last value Update wrote (Bottom if never updated).
	Value core.Value

	// Seq counts the owner's Updates; 0 means never updated.
	Seq int

	// View is the embedded snapshot the owner took during its last
	// Update; scanners return it when they observe the owner perform two
	// complete Updates (the helping path).
	View []Cell
}

// Object is one process's handle to a named atomic snapshot object. All
// processes sharing a swmr execution and a name operate on the same object.
// A handle belongs to its process's body, like the *swmr.Proc it wraps.
type Object struct {
	proc *swmr.Proc
	reg  string // the register holding the caller's cell: "snap:"+name

	// Scan's scratch: the two collects it compares, as read (a Cell, or
	// Bottom), and how often each component moved since the scan began.
	prev, cur []core.Value
	moved     []int
}

// New returns process p's handle to the snapshot object called name.
func New(p *swmr.Proc, name string) *Object {
	regs := make([]core.Value, 2*p.N)
	return &Object{proc: p, reg: "snap:" + name,
		prev: regs[:p.N:p.N], cur: regs[p.N:], moved: make([]int, p.N)}
}

// Update atomically (in the linearization sense) replaces the caller's
// component with v. It embeds a fresh scan into the written cell so that
// concurrent scanners can borrow it.
func (o *Object) Update(v core.Value) error {
	view, err := o.Scan()
	if err != nil {
		return err
	}
	cur, err := o.proc.Read(o.proc.Me, o.reg)
	if err != nil {
		return err
	}
	seq := 0
	if c, ok := cur.(Cell); ok {
		seq = c.Seq
	}
	return o.proc.Write(o.reg, Cell{Value: v, Seq: seq + 1, View: view})
}

// Scan returns a linearizable snapshot of all n components. Components never
// updated have Seq 0 and Value Bottom.
//
// The implementation is the classic double collect with helping: if two
// successive collects agree on every sequence number the direct view is
// returned; otherwise any process observed to move twice since the scan
// began must have completed an entire Update inside the scan, and its
// embedded view (which is itself a valid snapshot taken inside our interval)
// is returned. At most n+1 collects are needed, so Scan is wait-free.
//
// The two collects fill the handle's own buffers; only the returned view is
// allocated, so it stays the caller's across later Scans and Updates.
func (o *Object) Scan() ([]Cell, error) {
	n := o.proc.N
	if err := o.proc.Collect(o.reg, o.prev); err != nil {
		return nil, err
	}
	clear(o.moved)
	for {
		if err := o.proc.Collect(o.reg, o.cur); err != nil {
			return nil, err
		}
		same := true
		for j := 0; j < n; j++ {
			if seq(o.cur[j]) != seq(o.prev[j]) {
				same = false
				o.moved[j]++
				if o.moved[j] >= 2 {
					// j completed a full Update strictly inside our
					// scan; its embedded view is a snapshot
					// linearizable within our interval.
					out := make([]Cell, n)
					copy(out, o.cur[j].(Cell).View)
					return out, nil
				}
			}
		}
		if same {
			return cells(o.cur), nil
		}
		o.prev, o.cur = o.cur, o.prev
	}
}

// seq is the sequence number of a component as read: 0 for Bottom.
func seq(v core.Value) int {
	c, _ := v.(Cell)
	return c.Seq
}

// cells returns a fresh view of a collect: a Cell per register, the zero
// Cell for Bottom.
func cells(regs []core.Value) []Cell {
	out := make([]Cell, len(regs))
	for j, v := range regs {
		out[j], _ = v.(Cell)
	}
	return out
}
