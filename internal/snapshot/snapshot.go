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
type Object struct {
	proc *swmr.Proc
	name string
}

// New returns process p's handle to the snapshot object called name.
func New(p *swmr.Proc, name string) *Object {
	return &Object{proc: p, name: name}
}

// reg is the register name holding this object's cell.
func (o *Object) reg() string { return "snap:" + o.name }

// Update atomically (in the linearization sense) replaces the caller's
// component with v. It embeds a fresh scan into the written cell so that
// concurrent scanners can borrow it.
func (o *Object) Update(v core.Value) error {
	view, err := o.Scan()
	if err != nil {
		return err
	}
	cur, err := o.proc.Read(o.proc.Me, o.reg())
	if err != nil {
		return err
	}
	seq := 0
	if c, ok := cur.(Cell); ok {
		seq = c.Seq
	}
	return o.proc.Write(o.reg(), Cell{Value: v, Seq: seq + 1, View: view})
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
func (o *Object) Scan() ([]Cell, error) {
	n := o.proc.N
	baseline, err := o.collect()
	if err != nil {
		return nil, err
	}
	prev := baseline
	moved := make([]int, n)
	for {
		cur, err := o.collect()
		if err != nil {
			return nil, err
		}
		same := true
		for j := 0; j < n; j++ {
			if cur[j].Seq != prev[j].Seq {
				same = false
				moved[j]++
				if moved[j] >= 2 {
					// j completed a full Update strictly inside our
					// scan; its embedded view is a snapshot
					// linearizable within our interval.
					return cloneView(cur[j].View, n), nil
				}
			}
		}
		if same {
			return cur, nil
		}
		prev = cur
	}
}

// collect reads every component once (n register operations).
func (o *Object) collect() ([]Cell, error) {
	raw, err := o.proc.Collect(o.reg())
	if err != nil {
		return nil, err
	}
	out := make([]Cell, len(raw))
	for i, v := range raw {
		if c, ok := v.(Cell); ok {
			out[i] = c
		}
	}
	return out, nil
}

func cloneView(view []Cell, n int) []Cell {
	out := make([]Cell, n)
	copy(out, view)
	return out
}
