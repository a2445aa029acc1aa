package wal

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs/hist"
)

// TestAppendBatchNumbersAndReplay pins the batch append contract: entries
// get contiguous sequence numbers from the returned first, the records
// replay exactly as individually appended ones would, and a batch
// interleaves cleanly with single Appends.
func TestAppendBatchNumbersAndReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("solo")); err != nil {
		t.Fatal(err)
	}
	first, err := l.AppendBatch([]BatchEntry{
		{Kind: 2, Payload: []byte("a")},
		{Kind: 2, Payload: []byte("bb")},
		{Kind: 3, Payload: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 2 {
		t.Fatalf("batch first seq = %d, want 2", first)
	}
	if l.nextSeq != 5 {
		t.Fatalf("NextSeq after batch = %d, want 5", l.nextSeq)
	}
	if _, err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if l.nextSeq != 5 {
		t.Fatalf("empty batch advanced NextSeq to %d", l.nextSeq)
	}
	if _, err := l.Append(4, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, rep, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 5 || rep.TruncatedBytes != 0 {
		t.Fatalf("replay: %+v", rep)
	}
	want := []struct {
		kind    uint8
		payload string
	}{{1, "solo"}, {2, "a"}, {2, "bb"}, {3, ""}, {4, "tail"}}
	for i, w := range want {
		r := recs[i]
		if r.Seq != uint64(i+1) || r.Kind != w.kind || string(r.Payload) != w.payload {
			t.Fatalf("record %d = %+v, want seq %d kind %d %q", i, r, i+1, w.kind, w.payload)
		}
	}
}

// TestAppendBatchSyncAlwaysHorizon pins the durability half: under
// SyncAlways a returned AppendBatch has moved SyncedSeq to the batch's
// last record — one fsync covering the lot — and the batch survives a
// simulated power cut.
func TestAppendBatchSyncAlwaysHorizon(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	batch := []BatchEntry{{Kind: 1, Payload: []byte("x")}, {Kind: 1, Payload: []byte("y")}}
	if _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if l.SyncedSeq() != 2 {
		t.Fatalf("SyncedSeq = %d, want 2", l.SyncedSeq())
	}
	seg, durable := segPath(t, dir)
	l.f.Close() // abandon without the Close() sync
	powerLoss(t, seg, durable)
	recs, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after power cut, want 2", len(recs))
	}
}

// TestAppendBatchSyncNeverHorizon pins the other half: under SyncNever a
// batch append must NOT advance the durability horizon — SyncedSeq never
// runs ahead of durable bytes, so the whole batch is legal power-loss
// debris until an explicit Sync.
func TestAppendBatchSyncNeverHorizon(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	_, durableAtCreate := segPath(t, dir)
	if _, err := l.AppendBatch([]BatchEntry{{Kind: 1, Payload: []byte("v")}, {Kind: 2, Payload: []byte("w")}}); err != nil {
		t.Fatal(err)
	}
	if l.SyncedSeq() != 0 {
		t.Fatalf("SyncNever batch advanced SyncedSeq to %d", l.SyncedSeq())
	}
	seg, _ := segPath(t, dir)
	l.f.Close()
	powerLoss(t, seg, durableAtCreate)
	recs, rep, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("unsynced batch survived the power cut: %d records", len(recs))
	}
	if rep.LastSeq != l.SyncedSeq() {
		t.Fatalf("horizon lied: SyncedSeq %d but replay recovered up to %d", l.SyncedSeq(), rep.LastSeq)
	}
}

// TestAppendBatchRotates checks an oversized batch still triggers segment
// rotation afterwards, keeping segments bounded.
func TestAppendBatchRotates(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{segBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var batch []BatchEntry
	for i := 0; i < 8; i++ {
		batch = append(batch, BatchEntry{Kind: 1, Payload: make([]byte, 64)})
	}
	if _, err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("oversized batch did not rotate: %d segments", len(segs))
	}
	if recs, _, err := Replay(dir); err != nil || len(recs) != 9 {
		t.Fatalf("replay across rotation: %d records, %v", len(recs), err)
	}
}

// TestGroupConcurrentAppends is the satellite's core durability test:
// concurrent Group.Append callers each get a sequence number that is
// already ≤ SyncedSeq the moment Append returns (SyncAlways), every
// record replays, and the committer actually coalesced (fewer batches
// than appends) under contention.
func TestGroupConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	h := hist.New()
	g := NewGroup(l, GroupOptions{maxBatch: 32, BatchHist: h})
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				payload := []byte(fmt.Sprintf("w%d-%d", w, i))
				seq, err := g.Append(1, payload)
				if err != nil {
					errs <- err
					return
				}
				// The contract acks ride on: by the time Append returns,
				// the record is inside the durability horizon.
				if horizon := g.SyncedSeq(); seq > horizon {
					errs <- fmt.Errorf("seq %d returned ahead of SyncedSeq %d", seq, horizon)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Appends != goroutines*perG {
		t.Fatalf("Appends = %d, want %d", st.Appends, goroutines*perG)
	}
	if st.Batches <= 0 || st.Batches > st.Appends {
		t.Fatalf("Batches = %d out of range (Appends %d)", st.Batches, st.Appends)
	}
	if h.Snapshot().Count != st.Batches {
		t.Fatalf("hist recorded %d batches, stats say %d", h.Snapshot().Count, st.Batches)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != goroutines*perG {
		t.Fatalf("replayed %d records, want %d", len(recs), goroutines*perG)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		seen[string(r.Payload)] = true
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("replay lost records: %d distinct payloads", len(seen))
	}
}

// TestGroupCloseDrainsAndRejects: Close commits everything already
// accepted, later Appends fail with ErrGroupClosed, and a second Close
// is a no-op.
func TestGroupCloseDrainsAndRejects(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroup(l, GroupOptions{})
	for i := 0; i < 10; i++ {
		if _, err := g.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Append(1, []byte("late")); err != ErrGroupClosed {
		t.Fatalf("append after close: %v, want ErrGroupClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
}

// BenchmarkAppendBatch prices the fsync amortization the serve journal
// buys: batch=1 is today's per-record path, larger batches share one
// write+fsync. Reported as records/sec.
func BenchmarkAppendBatch(b *testing.B) {
	payload := make([]byte, 64)
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			dir := b.TempDir()
			l, err := Create(dir, Options{Sync: SyncAlways, segBytes: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			batch := make([]BatchEntry, size)
			for i := range batch {
				batch[i] = BatchEntry{Kind: 1, Payload: payload}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.AppendBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*size)/b.Elapsed().Seconds(), "records/sec")
		})
	}
}

// BenchmarkGroupAppend prices one trip through the group committer —
// what a serve turn's flush waits for — carrying one record and carrying
// two. SyncNever keeps the disk out of the number: what is left is the
// hand-off to the committer goroutine and back.
func BenchmarkGroupAppend(b *testing.B) {
	for _, recs := range []int{1, 2} {
		b.Run(fmt.Sprintf("records=%d", recs), func(b *testing.B) {
			l, err := Create(b.TempDir(), Options{segBytes: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			g := NewGroup(l, GroupOptions{})
			defer g.Close()
			entries := make([]BatchEntry, recs)
			for i := range entries {
				entries[i] = BatchEntry{Kind: 1, Payload: make([]byte, 16)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.AppendBatch(entries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
