// Group commit: the fsync-coalescing layer of the write path. A Log is
// single-writer; AppendBatch gives that writer a way to make many
// records durable under ONE write + ONE fsync. Group is the concurrent
// front-end of the write path: any number of goroutines call
// Group.AppendBatch — each with everything it has to journal, one record
// or many — and every caller returns only once its records are durable
// per the log's SyncMode, so the journal-before-ack contract survives
// concurrency while the fsyncs are paid once per commit, not once per
// record.
//
// A caller that finds no commit in flight writes its entries itself, on
// its own goroutine (no hand-off and no added latency at low load).
// Callers that arrive while a commit is in flight append their entries
// to the next batch and wait; when the commit ends, whichever of them
// runs first writes that batch for all, and each returns its own offset
// into the one shared result (fsyncs amortize exactly as fast as load
// grows). This is the classic group-commit self-tuning behaviour. A
// caller that already holds several records — a serve loop at the end of
// a turn — coalesces before it ever calls: its records share a
// commit even when nobody else is appending.
package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs/hist"
)

// BatchEntry is one record of an AppendBatch.
type BatchEntry struct {
	Kind    uint8
	Payload []byte
}

// AppendBatch appends every entry and returns the sequence number of the
// first (entries get contiguous numbers from it). The whole batch is
// written with one Write call and, under SyncAlways, made durable with
// one Sync — when AppendBatch returns, every entry is durable per the
// log's SyncMode, at one fsync for the lot. An empty batch is a no-op
// returning the next sequence number.
//
// Like Append, AppendBatch must only be called from the log's single
// writer; Group provides the concurrent front-end.
func (l *Log) AppendBatch(entries []BatchEntry) (uint64, error) {
	if l.closed {
		return 0, errors.New("wal: append to closed log")
	}
	first := l.nextSeq
	if len(entries) == 0 {
		return first, nil
	}
	size := 0
	for _, e := range entries {
		if len(e.Payload) > MaxPayload {
			return 0, fmt.Errorf("wal: payload %d exceeds max %d", len(e.Payload), MaxPayload)
		}
		size += frameSize + len(e.Payload)
	}
	if cap(l.batchBuf) < size {
		l.batchBuf = make([]byte, 0, size)
	}
	buf := l.batchBuf[:0]
	seq := l.nextSeq
	for _, e := range entries {
		buf = appendFrame(buf, seq, e.Kind, e.Payload)
		seq++
	}
	if _, err := l.f.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.batchBuf = buf[:0]
	l.segSize += size
	l.nextSeq = seq
	if l.opts.Sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
		l.syncedSeq = seq - 1
	}
	if l.segSize >= l.opts.segmentBytes() {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	return first, nil
}

// ErrGroupClosed reports an append on a closed Group.
var ErrGroupClosed = errors.New("wal: group writer closed")

// GroupOptions tunes a Group.
type GroupOptions struct {
	// BatchHist, when non-nil, records each commit's batch size — the
	// observability hook the serve layer wires to "serve_wal_batch".
	BatchHist *hist.Histogram
}

// GroupStats counts a Group's work: Appends records accepted, Batches
// commits performed. Batches < Appends is coalescing at work.
type GroupStats struct {
	Appends int64
	Batches int64
}

// Group is the concurrent group-commit front-end over a Log. Create
// with NewGroup; stop with Close. After Close, appends fail with
// ErrGroupClosed; the underlying Log remains open and owned by the
// caller.
type Group struct {
	log  *Log
	opts GroupOptions

	mu     sync.Mutex
	idle   sync.Cond // broadcast when a commit ends
	busy   bool      // a caller is writing a batch, mu released
	next   *pending  // entries that arrived during the commit in flight
	spare  []BatchEntry
	closed bool

	appends atomic.Int64
	batches atomic.Int64
	synced  atomic.Uint64
}

// pending is the next batch: its callers' entries in arrival order and,
// once written, the one result they share.
type pending struct {
	entries []BatchEntry
	first   uint64
	err     error
	written bool
}

// NewGroup returns a Group over l. The caller must not call
// l.Append/AppendBatch directly while the group is open — whichever
// caller is committing is the log's single writer.
func NewGroup(l *Log, opts GroupOptions) *Group {
	g := &Group{log: l, opts: opts}
	g.idle.L = &g.mu
	return g
}

// Append makes one record durable per the log's SyncMode and returns its
// sequence number: the one-entry case of AppendBatch.
func (g *Group) Append(kind uint8, payload []byte) (uint64, error) {
	return g.AppendBatch([]BatchEntry{{Kind: kind, Payload: payload}})
}

// AppendBatch makes entries durable per the log's SyncMode, in order and
// with contiguous sequence numbers, and returns the first. Safe for
// concurrent use; blocks until the commit that carries the entries
// completes — they always share one — so a caller returning from
// AppendBatch may acknowledge whatever the records promise. The caller
// must leave entries untouched until then. An empty batch is a no-op.
func (g *Group) AppendBatch(entries []BatchEntry) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return 0, ErrGroupClosed
	}
	if !g.busy && g.next == nil {
		return g.write(entries)
	}
	b := g.next
	if b == nil {
		b = &pending{entries: g.spare}
		g.spare, g.next = nil, b
	}
	off := uint64(len(b.entries))
	b.entries = append(b.entries, entries...)
	for !b.written {
		g.step()
	}
	if b.err != nil {
		return 0, b.err
	}
	return b.first + off, nil
}

// step waits out the commit in flight, or, when none is, writes the next
// batch for every caller in it. Called with mu held.
func (g *Group) step() {
	if g.busy {
		g.idle.Wait()
		return
	}
	b := g.next
	g.next = nil
	b.first, b.err = g.write(b.entries)
	b.written = true
	clear(b.entries)
	g.spare = b.entries[:0]
}

// write commits entries as one Log.AppendBatch. It is called with mu held
// and no commit in flight, and releases mu for the write itself, so the
// callers that arrive meanwhile gather into the next batch.
func (g *Group) write(entries []BatchEntry) (uint64, error) {
	g.busy = true
	g.mu.Unlock()
	first, err := g.log.AppendBatch(entries)
	g.appends.Add(int64(len(entries)))
	g.batches.Add(1)
	g.synced.Store(g.log.SyncedSeq())
	if g.opts.BatchHist != nil {
		g.opts.BatchHist.Record(int64(len(entries)))
	}
	g.mu.Lock()
	g.busy = false
	g.idle.Broadcast()
	return first, err
}

// Stats returns the group's counters.
func (g *Group) Stats() GroupStats {
	return GroupStats{Appends: g.appends.Load(), Batches: g.batches.Load()}
}

// SyncedSeq is the concurrent-safe view of the log's durability horizon:
// the highest sequence number known durable as of the last commit. Unlike
// Log.SyncedSeq it may be read while a commit runs.
func (g *Group) SyncedSeq() uint64 { return g.synced.Load() }

// Close stops accepting appends and returns once every accepted one is
// written — the batch in flight, and the next one even if none of its
// callers has woken to write it yet. It does not close the underlying Log.
func (g *Group) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	for g.busy || g.next != nil {
		g.step()
	}
	return nil
}
