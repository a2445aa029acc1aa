package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// segPath returns the path and size of the single open segment.
func segPath(t *testing.T, dir string) (string, int64) {
	t.Helper()
	segs, err := segments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v (%d)", err, len(segs))
	}
	p := filepath.Join(dir, segs[len(segs)-1].name)
	fi, err := os.Stat(p)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	return p, fi.Size()
}

// powerLoss simulates a kernel panic / power cut: every byte not yet
// fsynced vanishes. durable is the segment size captured at the last
// moment the log was known synced.
func powerLoss(t *testing.T, seg string, durable int64) {
	t.Helper()
	if err := os.Truncate(seg, durable); err != nil {
		t.Fatalf("truncate to durable prefix: %v", err)
	}
}

// TestSyncNeverCanLoseTheTail pins the SyncNever contract: appends after
// the last explicit Sync are not power-loss durable — a simulated power
// cut rolls the log back to the durability horizon, and replay treats
// the missing tail as legal debris (no corruption, log still usable).
func TestSyncNeverCanLoseTheTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if l.SyncedSeq() != 0 {
		t.Fatalf("horizon %d before any Sync, want 0", l.SyncedSeq())
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if l.SyncedSeq() != 3 {
		t.Fatalf("horizon %d after Sync, want 3", l.SyncedSeq())
	}
	seg, durable := segPath(t, dir)

	// Two more appends the caller might (wrongly) act on.
	for i := 3; i < 5; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if l.SyncedSeq() != 3 || l.nextSeq != 6 {
		t.Fatalf("horizon %d next %d: the unsynced tail must sit above the horizon", l.SyncedSeq(), l.nextSeq)
	}
	// No Close (Close would sync): the power cut takes the tail.
	powerLoss(t, seg, durable)

	recs, rep, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay after power loss: %v", err)
	}
	if len(recs) != 3 || rep.LastSeq != 3 {
		t.Fatalf("replayed %d records (last %d), want exactly the 3 synced ones", len(recs), rep.LastSeq)
	}
	// The survivor is a clean log: the next incarnation appends seq 4.
	l2, recs2, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatalf("open after power loss: %v", err)
	}
	defer l2.Close()
	if len(recs2) != 3 || l2.nextSeq != 4 || l2.SyncedSeq() != 3 {
		t.Fatalf("reopened: %d records, next %d, horizon %d", len(recs2), l2.nextSeq, l2.SyncedSeq())
	}
}

// TestSyncAlwaysCannotLoseAnAppend pins the SyncAlways contract: every
// returned Append is at or below the durability horizon, so the only
// thing a power cut can take is an in-flight frame that was never
// acknowledged — the torn tail replay drops.
func TestSyncAlwaysCannotLoseAnAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	for i := 0; i < 3; i++ {
		seq, err := l.Append(1, []byte{byte(i)})
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if l.SyncedSeq() != seq {
			t.Fatalf("append %d returned but horizon is %d: the ack would outrun durability", seq, l.SyncedSeq())
		}
	}
	seg, durable := segPath(t, dir)

	// A power cut mid-append: the frame being written was never
	// acknowledged, so losing (part of) it loses nothing promised.
	// Simulate the torn half-frame the crash leaves behind.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte{4, 0, 0, 0, 0, 0, 0, 0, 1, 9}); err != nil {
		t.Fatalf("write torn frame: %v", err)
	}
	f.Close()

	recs, rep, err := Replay(dir)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want all 3 acknowledged ones", len(recs))
	}
	if rep.TruncatedBytes == 0 {
		t.Fatalf("torn tail not reported: %+v", rep)
	}
	// Even cutting at exactly the durable prefix (the strictest power
	// loss SyncAlways allows) keeps every acknowledged record.
	powerLoss(t, seg, durable)
	recs, _, err = Replay(dir)
	if err != nil || len(recs) != 3 {
		t.Fatalf("after power loss at the horizon: %d records, %v", len(recs), err)
	}
}
