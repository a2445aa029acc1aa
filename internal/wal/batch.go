// Batch append: the write path that makes many records durable under
// ONE write and ONE fsync. A Log has one writer; AppendBatch lets that
// writer hand over everything it has to journal at once, and Group is
// the writer's front-end: a serve loop ends each turn with one
// Group.AppendBatch of the turn's records, so a turn is one commit and
// returns only once its records are durable per the log's SyncMode — the
// journal-before-ack contract at one fsync per turn, not per record.
package wal

import (
	"errors"
	"fmt"
	"sync"

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
// writer.
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
// commits performed. Appends/Batches is the records a commit carries.
type GroupStats struct {
	Appends int64
	Batches int64
}

// Group is the journal's one appender over a Log. Create with NewGroup;
// stop with Close. After Close, appends fail with ErrGroupClosed; the
// underlying Log remains open and owned by the caller. Its mutex
// serializes callers, so a second one waits for the commit in flight
// instead of corrupting the log.
type Group struct {
	log  *Log
	opts GroupOptions

	mu      sync.Mutex
	closed  bool
	appends int64
	batches int64
}

// NewGroup returns a Group over l. The caller must not call
// l.Append/AppendBatch directly while the group is open — the group is
// the log's single writer.
func NewGroup(l *Log, opts GroupOptions) *Group {
	return &Group{log: l, opts: opts}
}

// Append makes one record durable per the log's SyncMode and returns its
// sequence number: the one-entry case of AppendBatch.
func (g *Group) Append(kind uint8, payload []byte) (uint64, error) {
	return g.AppendBatch([]BatchEntry{{Kind: kind, Payload: payload}})
}

// AppendBatch makes entries durable per the log's SyncMode as one
// Log.AppendBatch — in order, with contiguous sequence numbers — and
// returns the first, so a caller returning from it may acknowledge
// whatever the records promise. It keeps no entry or payload once it
// returns. An empty batch is a no-op.
func (g *Group) AppendBatch(entries []BatchEntry) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return 0, ErrGroupClosed
	}
	first, err := g.log.AppendBatch(entries)
	g.appends += int64(len(entries))
	g.batches++
	g.opts.BatchHist.Record(int64(len(entries)))
	return first, err
}

// Stats returns the group's counters.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GroupStats{Appends: g.appends, Batches: g.batches}
}

// Close stops accepting appends; a commit in flight finishes first. It
// does not close the underlying Log.
func (g *Group) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	return nil
}
