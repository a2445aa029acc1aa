package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing lives entirely in the benchmark: spans are recorded around
// the calls into each layer, kept in memory, and written when the run
// ends. A nil *tracer (and the nil *lane it hands out) records nothing,
// so the untraced run executes the same code minus the appends.

// span is one timed interval. Parent is the ID of the span that caused
// it (0 for a root); times are nanoseconds since the tracer started.
type span struct {
	ID, Parent int32
	Name       string
	Start, End int64
	lane       int
}

type tracer struct {
	t0   time.Time
	next atomic.Int32

	mu    sync.Mutex
	lanes []*lane
}

// lane is one goroutine's span buffer: appends need no lock.
type lane struct {
	tr    *tracer
	tid   int
	spans []span
}

// open is a started span; pass it to end.
type open struct {
	id, parent int32
	name       string
	start      int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) lane() *lane {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	l := &lane{tr: tr, tid: len(tr.lanes)}
	tr.lanes = append(tr.lanes, l)
	return l
}

func (l *lane) begin(parent int32, name string) open {
	if l == nil {
		return open{}
	}
	return open{id: l.tr.next.Add(1), parent: parent, name: name, start: int64(time.Since(l.tr.t0))}
}

func (l *lane) end(o open) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		ID: o.id, Parent: o.parent, Name: o.name,
		Start: o.start, End: int64(time.Since(l.tr.t0)), lane: l.tid,
	})
}

// spans returns every finished span. Call it after the recording
// goroutines have stopped.
func (tr *tracer) spans() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var all []span
	for _, l := range tr.lanes {
		all = append(all, l.spans...)
	}
	return all
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover. Children may overlap one another (two clients
// under one phase) and may stick out of the parent; the covered part is
// the union of the child intervals clipped to the parent.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of ivs within [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	at := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// writeChromeTrace writes spans as Chrome trace-event JSON (open it in
// Perfetto or chrome://tracing): one complete event per span, one track
// per recording goroutine, id and parent under args.
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name, _ := json.Marshal(s.Name) // a string always marshals
		fmt.Fprintf(w, "\n"+`{"name":%s,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}}`,
			name, s.lane, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.ID, s.Parent, s.Start, s.End)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
