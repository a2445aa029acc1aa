package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay feeds arbitrary bytes to the segment scanner as the sole
// (hence final) segment of a log. Replay must never panic, and whatever
// it accepts must satisfy the format invariants: contiguous sequence
// numbers from 1 and checksums that re-verify.
func FuzzReplay(f *testing.F) {
	// Seed with a well-formed two-record segment and a few mutations of it.
	valid := buildSegment([][]byte{[]byte("alpha"), []byte("beta")})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff // checksum mismatch in last record
	f.Add(flipped)
	f.Add(valid[:headerSize]) // header only
	f.Add([]byte{})           // too short for a header

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, rep, err := Replay(dir)
		if err != nil {
			// A single segment is always final, so scan failures surface as
			// torn tails, never errors — except a header-level failure.
			if len(recs) != 0 {
				t.Fatalf("error %v alongside %d records", err, len(recs))
			}
			return
		}
		for i, r := range recs {
			if r.Seq != uint64(i+1) {
				t.Fatalf("accepted record %d with seq %d", i, r.Seq)
			}
		}
		if rep.Records != len(recs) {
			t.Fatalf("report says %d records, replay returned %d", rep.Records, len(recs))
		}
		if rep.TruncatedBytes < 0 || rep.TruncatedBytes > len(data) {
			t.Fatalf("implausible truncated-byte count %d for %d input bytes", rep.TruncatedBytes, len(data))
		}

		// Whatever survived replay must also survive Open: truncation of the
		// accepted prefix plus appends must round-trip.
		l, recs2, _, err := Open(dir, Options{})
		if err != nil {
			return // header-level corruption: Open may refuse, that's fine
		}
		defer l.Close()
		if len(recs2) != len(recs) {
			t.Fatalf("Open replayed %d records, Replay saw %d", len(recs2), len(recs))
		}
		if _, err := l.Append(1, []byte("fuzz-append")); err != nil {
			t.Fatalf("append after open: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		recs3, _, err := Replay(dir)
		if err != nil {
			t.Fatalf("replay after append: %v", err)
		}
		if len(recs3) != len(recs)+1 {
			t.Fatalf("after append: %d records, want %d", len(recs3), len(recs)+1)
		}
	})
}

// buildSegment assembles a single well-formed segment in memory.
func buildSegment(payloads [][]byte) []byte {
	b := make([]byte, headerSize)
	putUint32(b[0:4], magic)
	putUint32(b[4:8], version)
	for i, p := range payloads {
		frame := make([]byte, frameSize+len(p))
		writeFrame(frame, uint64(i+1), 1, p)
		b = append(b, frame...)
	}
	return b
}
