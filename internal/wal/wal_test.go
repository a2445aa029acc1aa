package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func appendAll(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(uint8(i%3+1), []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, rep, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || rep.Records != 10 || rep.TruncatedBytes != 0 {
		t.Fatalf("replay: %d records, report %+v", len(recs), rep)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if want := fmt.Sprintf("record-%d", i); string(r.Payload) != want {
			t.Fatalf("record %d payload %q, want %q", i, r.Payload, want)
		}
		if r.Kind != uint8(i%3+1) {
			t.Fatalf("record %d kind %d", i, r.Kind)
		}
	}
}

func TestEmptyAndMissing(t *testing.T) {
	recs, rep, err := Replay(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(recs) != 0 || rep.Records != 0 {
		t.Fatalf("missing dir: recs=%d rep=%+v err=%v", len(recs), rep, err)
	}

	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, rep, err = Replay(dir)
	if err != nil || len(recs) != 0 || rep.Segments != 1 {
		t.Fatalf("empty log: recs=%d rep=%+v err=%v", len(recs), rep, err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{segBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	recs, rep, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 || rep.Segments != len(segs) {
		t.Fatalf("replay across segments: %d records, %d/%d segments", len(recs), rep.Segments, len(segs))
	}
}

func TestTornTailTruncatedOnReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the final frame.
	seg := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	recs, rep, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("torn replay kept %d records, want 4", len(recs))
	}
	if rep.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
}

func TestCorruptTailTreatedAsTorn(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte of the LAST record: checksum fails, the record
	// is dropped as a torn tail.
	seg := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, rep, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || rep.TruncatedBytes == 0 {
		t.Fatalf("corrupt-tail replay: %d records, %d truncated bytes", len(recs), rep.TruncatedBytes)
	}
}

func TestCorruptionInRotatedSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{segBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 20)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the FIRST segment: this is mid-log, not a torn tail.
	seg := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Replay(dir)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-log corruption: got %v, want *CorruptError", err)
	}
}

func TestOpenResumesAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail, then append garbage beyond it for good measure.
	seg := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte(nil), b[:len(b)-3]...), 0xde, 0xad)
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, recs, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || rep.TruncatedBytes == 0 {
		t.Fatalf("open after tear: %d records, %d truncated", len(recs), rep.TruncatedBytes)
	}
	// The torn record's sequence number is reused by the re-append.
	if seq, err := l2.Append(9, []byte("after-recovery")); err != nil || seq != 5 {
		t.Fatalf("append after recovery: seq=%d err=%v", seq, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err = Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || !bytes.Equal(recs[4].Payload, []byte("after-recovery")) {
		t.Fatalf("post-recovery replay: %d records, last %q", len(recs), recs[len(recs)-1].Payload)
	}
}

func TestOpenFreshDirCreates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "new")
	l, recs, rep, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || rep.Records != 0 {
		t.Fatalf("fresh open: %d records", len(recs))
	}
	if _, err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateRefusesExistingLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Create(dir, Options{}); err == nil {
		t.Fatal("Create over an existing log should fail")
	}
}

func TestSyncAlways(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 3)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := Replay(dir)
	if err != nil || len(recs) != 3 {
		t.Fatalf("sync-always replay: %d records, err=%v", len(recs), err)
	}
}

func TestSequenceGapIsCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite record 2's seq to 7 and fix its checksum so only the gap is
	// wrong.
	seg := filepath.Join(dir, segmentName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the second frame: header + frame1.
	off := headerSize + frameSize + len("record-0")
	payload := []byte("record-1")
	writeFrame(b[off:], 7, b[off+8], payload)
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, rep, err := Replay(dir)
	// In the final segment a gap stops the scan as a torn tail.
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || rep.TruncatedBytes == 0 {
		t.Fatalf("gap in final segment: %d records, %d truncated", len(recs), rep.TruncatedBytes)
	}
}

// writeFrame re-encodes a frame in place (test helper for corruption
// shaping).
func writeFrame(b []byte, seq uint64, kind uint8, payload []byte) {
	putUint64(b[0:8], seq)
	b[8] = kind
	putUint32(b[9:13], uint32(len(payload)))
	putUint32(b[13:17], frameCRC(seq, kind, payload))
	copy(b[frameSize:], payload)
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func putUint32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
