// Group commit: the fsync-coalescing layer of the write path. A Log is
// single-writer; AppendBatch gives that writer a way to make many
// records durable under ONE write + ONE fsync. Group is the concurrent
// front-end the sharded service uses: any number of goroutines call
// Group.AppendBatch — each with everything it has to journal, one record
// or many — a single committer goroutine drains whatever has accumulated
// into one Log.AppendBatch, and every caller returns only once its
// records are durable per the log's SyncMode — so the journal-before-ack
// contract survives concurrency while the fsyncs are paid once per
// commit, not once per record.
//
// The batching is greedy and windowless: when the committer is free it
// commits a single request immediately (no added latency at low load);
// when a commit is in flight, everything that arrives meanwhile forms
// the next batch (fsyncs amortize exactly as fast as load grows). This
// is the classic group-commit self-tuning behaviour. A caller that
// already holds several records — a serve shard loop at the end of a
// turn — coalesces before the committer ever sees them: its records
// share a commit even when nobody else is appending.
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
// one Sync — when AppendBatch returns, every entry enjoys the same
// durability an individual Append would have had, at one fsync for the
// lot. An empty batch is a no-op returning the next sequence number.
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
			return 0, fmt.Errorf("wal: batch payload %d exceeds max %d", len(e.Payload), MaxPayload)
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
		return 0, fmt.Errorf("wal: append batch: %w", err)
	}
	l.batchBuf = buf[:0]
	l.segSize += size
	l.nextSeq = seq
	if l.opts.Sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync batch: %w", err)
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
	// maxBatch bounds how many records the committer gathers into one
	// commit; a single request's records are never split, so a commit
	// may exceed it by that request's tail. 0 means 256.
	maxBatch int

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
	req  chan groupReq
	wg   sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	appends atomic.Int64
	batches atomic.Int64
	synced  atomic.Uint64
}

type groupReq struct {
	entries []BatchEntry
	res     chan groupRes
}

type groupRes struct {
	seq uint64
	err error
}

// NewGroup starts the committer goroutine over l. The caller must not
// call l.Append/AppendBatch directly while the group is open — the
// committer is the log's single writer.
func NewGroup(l *Log, opts GroupOptions) *Group {
	if opts.maxBatch <= 0 {
		opts.maxBatch = 256
	}
	// Up to 1024 appends wait in the channel; past that a submitter blocks
	// until the committer drains it.
	g := &Group{log: l, opts: opts, req: make(chan groupReq, 1024)}
	g.wg.Add(1)
	go g.commit()
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
	r := groupReq{entries: entries, res: make(chan groupRes, 1)}
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return 0, ErrGroupClosed
	}
	g.req <- r
	g.mu.RUnlock()
	res := <-r.res
	return res.seq, res.err
}

// Stats returns the group's counters.
func (g *Group) Stats() GroupStats {
	return GroupStats{Appends: g.appends.Load(), Batches: g.batches.Load()}
}

// SyncedSeq is the concurrent-safe view of the log's durability horizon:
// the highest sequence number known durable as of the last commit. Unlike
// Log.SyncedSeq it may be read while the committer runs.
func (g *Group) SyncedSeq() uint64 { return g.synced.Load() }

// Close stops accepting appends, waits for every pending one to commit,
// and stops the committer. It does not close the underlying Log.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	// No Append can be mid-send past this point (they hold the read lock
	// across the send), so closing the channel is safe; the committer
	// drains what is queued and exits.
	close(g.req)
	g.wg.Wait()
	return nil
}

// commit is the committer loop: one blocking receive starts a batch,
// a non-blocking drain (until maxBatch records are gathered) fills it,
// one AppendBatch makes it durable, and every waiter learns its fate.
func (g *Group) commit() {
	defer g.wg.Done()
	batch := make([]BatchEntry, 0, g.opts.maxBatch)
	waiters := make([]groupReq, 0, g.opts.maxBatch)
	for {
		r, ok := <-g.req
		if !ok {
			return
		}
		batch, waiters = batch[:0], waiters[:0]
		batch = append(batch, r.entries...)
		waiters = append(waiters, r)
	drain:
		for len(batch) < g.opts.maxBatch {
			select {
			case r2, ok2 := <-g.req:
				if !ok2 {
					break drain
				}
				batch = append(batch, r2.entries...)
				waiters = append(waiters, r2)
			default:
				break drain
			}
		}
		first, err := g.log.AppendBatch(batch)
		g.appends.Add(int64(len(batch)))
		g.batches.Add(1)
		g.synced.Store(g.log.SyncedSeq())
		if g.opts.BatchHist != nil {
			g.opts.BatchHist.Record(int64(len(batch)))
		}
		for _, w := range waiters {
			if err != nil {
				w.res <- groupRes{err: err}
			} else {
				w.res <- groupRes{seq: first}
			}
			first += uint64(len(w.entries))
		}
	}
}
