// Package wal is an append-only, checksummed, segmented write-ahead log —
// the durable substrate of the crash-recovery layer. The engine checkpoints
// per-round state through it (internal/core), and recovering processes
// journal round views through it (internal/recovery).
//
// The format is deliberately simple and self-describing. A log is a
// directory of segment files named seg-00000001.wal, seg-00000002.wal, ….
// Each segment opens with an 8-byte header (magic + format version) and
// then holds a sequence of frames:
//
//	seq     uint64  // record sequence number, contiguous across segments
//	kind    uint8   // caller-defined record type
//	length  uint32  // payload length
//	crc     uint32  // CRC-32C over seq ‖ kind ‖ length ‖ payload
//	payload []byte
//
// All integers are little-endian. Replay reads segments in order and stops
// at the first frame that is incomplete or fails its checksum:
//
//   - in the final segment this is a torn write — the expected debris of a
//     crash mid-append — so the tail is dropped and reported (and Open
//     physically truncates it so appending can continue);
//   - anywhere else it is corruption, reported as a *CorruptError, because
//     a frame in a non-final segment was once followed by a successful
//     rotation and cannot have been torn.
//
// Sequence numbers must be contiguous from 1; a gap is also corruption.
// Durability is fsync-optional: SyncNever trusts the OS page cache (a
// process crash loses nothing; a power loss may), SyncAlways fsyncs every
// append, and Sync may be called explicitly at any policy.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	// magic identifies a segment file; version is the format version.
	magic   uint32 = 0x52464431 // "RFD1"
	version uint32 = 1

	headerSize = 8  // magic + version
	frameSize  = 17 // seq(8) + kind(1) + length(4) + crc(4)

	// MaxPayload bounds one record; larger appends are rejected rather
	// than silently splitting.
	MaxPayload = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncMode selects the fsync policy for appends — the durability half of
// a journal-before-act contract. The question it answers: when Append
// returns (and the caller goes on to acknowledge, reply, or act), which
// failure classes is the record already safe against?
//
//	             process crash / kill -9    kernel panic / power loss
//	SyncNever    safe (page cache)          tail since last Sync LOST
//	SyncAlways   safe                       safe
//
// SyncNever costs one buffered write per append (≈µs); SyncAlways adds a
// device flush (≈ms on disks, ~100µs on NVMe) to every append. The rule
// of thumb: anything that externalizes an effect keyed on the record —
// acknowledging a decision to a client, sending a message another process
// will act on — needs SyncAlways (or an explicit Sync before the ack);
// state that is merely expensive to recompute can ride SyncNever.
// SyncedSeq reports the durability horizon either way.
type SyncMode int

const (
	// SyncNever never fsyncs on append; Sync may still be called
	// explicitly. An append survives a process crash the moment it
	// returns (the OS holds the bytes), but a power loss or kernel panic
	// rolls the log back to the last explicit Sync, rotation, or Close —
	// the tail since then is legal debris, silently dropped at replay.
	// Never acknowledge anything on the strength of a SyncNever append.
	SyncNever SyncMode = iota

	// SyncAlways fsyncs after every append: when Append returns, the
	// record is on stable storage and no failure short of media loss can
	// un-write it — the mode that makes ack-after-Append honest.
	SyncAlways
)

// Options tunes a log.
type Options struct {
	// segBytes is the rotation threshold: a segment that reaches this
	// size is closed and a fresh one started. 0 means 1 MiB.
	segBytes int

	// Sync is the fsync policy for Append; see SyncMode for the
	// crash-class tradeoff. The zero value is SyncNever — fast, but an
	// acknowledgement given on the strength of an append is not
	// power-loss durable until Sync is called.
	Sync SyncMode
}

func (o Options) segmentBytes() int {
	if o.segBytes <= 0 {
		return 1 << 20
	}
	return o.segBytes
}

// Record is one replayed log entry.
type Record struct {
	Seq     uint64
	Kind    uint8
	Payload []byte
}

// ReplayReport summarizes a replay: how much was read and how much of a
// torn tail was dropped.
type ReplayReport struct {
	// Records and Segments count what was successfully replayed.
	Records  int
	Segments int

	// TruncatedBytes is the size of the torn tail dropped from the final
	// segment (0 for a cleanly closed log).
	TruncatedBytes int

	// LastSeq is the sequence number of the last valid record (0 if none).
	LastSeq uint64
}

// CorruptError reports corruption that cannot be explained as a torn
// write: a bad frame before the end of the log, or a sequence gap.
type CorruptError struct {
	Segment string
	Offset  int64
	Reason  string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log: %s at %s+%d", e.Reason, e.Segment, e.Offset)
}

// Log is an open write-ahead log positioned for appending.
type Log struct {
	dir     string
	opts    Options
	f       *os.File
	segIdx  int // index of the open segment
	segSize int // bytes written to the open segment
	nextSeq uint64
	closed  bool

	// syncedSeq is the durability horizon: the highest sequence number
	// known to have reached stable storage (see SyncedSeq).
	syncedSeq uint64

	// batchBuf is AppendBatch's reusable frame-assembly buffer.
	batchBuf []byte
}

// Create initializes a fresh log in dir, which must be empty (or not yet
// exist — it is created with parents).
func Create(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	if segs, err := segments(dir); err != nil {
		return nil, err
	} else if len(segs) > 0 {
		return nil, fmt.Errorf("wal: %s already holds a log (%d segments); use Open to resume", dir, len(segs))
	}
	l := &Log{dir: dir, opts: opts, nextSeq: 1}
	if err := l.rotate(); err != nil {
		return nil, err
	}
	return l, nil
}

// Open replays an existing log, truncates any torn tail from its final
// segment, and returns the log positioned for appending together with the
// replayed records and the replay report.
func Open(dir string, opts Options) (*Log, []Record, *ReplayReport, error) {
	recs, rep, tailKeep, err := replay(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	segs, err := segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			l, err := Create(dir, opts)
			return l, nil, rep, err
		}
		return nil, nil, nil, err
	}
	if len(segs) == 0 {
		l, err := Create(dir, opts)
		return l, nil, rep, err
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(filepath.Join(dir, last.name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: reopen segment: %w", err)
	}
	// Drop the torn tail so new frames don't land after garbage. tailKeep
	// is the byte length of the final segment's valid prefix as determined
	// by the same scan that produced recs, so the two can't disagree.
	keep := int64(tailKeep)
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	l := &Log{
		dir:     dir,
		opts:    opts,
		f:       f,
		segIdx:  last.index,
		segSize: int(keep),
		nextSeq: rep.LastSeq + 1,
		// What replay saw is what this incarnation can ever recover: the
		// durability horizon restarts at the replayed prefix.
		syncedSeq: rep.LastSeq,
	}
	if keep < headerSize {
		// Even the header was torn or garbled: rebuild the segment in place.
		var hdr [headerSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], magic)
		binary.LittleEndian.PutUint32(hdr[4:8], version)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("wal: rewrite segment header: %w", err)
		}
		l.segSize = headerSize
	}
	return l, recs, rep, nil
}

// Append writes one record and returns its sequence number. The record is
// durable per the configured SyncMode.
func (l *Log) Append(kind uint8, payload []byte) (uint64, error) {
	if l.closed {
		return 0, errors.New("wal: append to closed log")
	}
	if len(payload) > MaxPayload {
		return 0, fmt.Errorf("wal: payload %d exceeds max %d", len(payload), MaxPayload)
	}
	seq := l.nextSeq
	frame := appendFrame(nil, seq, kind, payload)
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.segSize += len(frame)
	l.nextSeq++
	if l.opts.Sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
		l.syncedSeq = seq
	}
	if l.segSize >= l.opts.segmentBytes() {
		if err := l.rotate(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// Sync flushes the open segment to stable storage, advancing the
// durability horizon to the last appended record.
func (l *Log) Sync() error {
	if l.closed {
		return errors.New("wal: sync on closed log")
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncedSeq = l.nextSeq - 1
	return nil
}

// SyncedSeq returns the durability horizon: the highest sequence number
// guaranteed to survive power loss. Under SyncAlways it tracks every
// Append; under SyncNever it advances only on explicit Sync, segment
// rotation, and Close — the gap up to the last appended sequence number is
// exactly the tail a power loss may take back.
func (l *Log) SyncedSeq() uint64 { return l.syncedSeq }

// Close syncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	l.syncedSeq = l.nextSeq - 1
	return l.f.Close()
}

// rotate closes the open segment (if any) and starts the next one.
func (l *Log) rotate() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync before rotate: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.syncedSeq = l.nextSeq - 1
	}
	l.segIdx++
	name := segmentName(l.segIdx)
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], version)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.f = f
	l.segSize = headerSize
	return nil
}

// Replay reads every record of the log in dir. A torn tail in the final
// segment is dropped (and reported); corruption anywhere else is a
// *CorruptError. Replaying an empty or missing directory yields no records.
func Replay(dir string) ([]Record, *ReplayReport, error) {
	recs, rep, _, err := replay(dir)
	return recs, rep, err
}

// replay is Replay plus the byte length of the final segment's valid
// prefix, which Open uses as the truncation point.
func replay(dir string) ([]Record, *ReplayReport, int, error) {
	rep := &ReplayReport{}
	segs, err := segments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, rep, 0, nil
		}
		return nil, nil, 0, err
	}
	var recs []Record
	tailKeep := 0
	for i, seg := range segs {
		final := i == len(segs)-1
		b, err := os.ReadFile(filepath.Join(dir, seg.name))
		if err != nil {
			return nil, nil, 0, fmt.Errorf("wal: read segment: %w", err)
		}
		n, segRecs, cerr := scanSegment(b, seg.name, rep.LastSeq)
		if cerr != nil && !final {
			return nil, nil, 0, cerr
		}
		if cerr != nil && final {
			// Torn write: drop the tail.
			rep.TruncatedBytes = len(b) - n
		}
		if !final && n != len(b) {
			// A clean stop before EOF in a rotated segment means trailing
			// garbage that a rotation should never have left behind.
			return nil, nil, 0, &CorruptError{Segment: seg.name, Offset: int64(n), Reason: "trailing bytes in rotated segment"}
		}
		if final && cerr == nil && n != len(b) {
			rep.TruncatedBytes = len(b) - n
		}
		if final {
			tailKeep = n
		}
		for _, r := range segRecs {
			rep.LastSeq = r.Seq
		}
		recs = append(recs, segRecs...)
		rep.Segments++
	}
	rep.Records = len(recs)
	return recs, rep, tailKeep, nil
}

// scanSegment parses one segment's bytes. It returns the number of bytes
// consumed by valid content, the records, and the error that stopped the
// scan (nil for a clean EOF). prevSeq is the last sequence number replayed
// from earlier segments.
func scanSegment(b []byte, name string, prevSeq uint64) (int, []Record, *CorruptError) {
	if len(b) < headerSize {
		return 0, nil, &CorruptError{Segment: name, Offset: 0, Reason: "short segment header"}
	}
	if binary.LittleEndian.Uint32(b[0:4]) != magic {
		return 0, nil, &CorruptError{Segment: name, Offset: 0, Reason: "bad magic"}
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != version {
		return 0, nil, &CorruptError{Segment: name, Offset: 4, Reason: fmt.Sprintf("unsupported version %d", v)}
	}
	off := headerSize
	var recs []Record
	seq := prevSeq
	for off < len(b) {
		if len(b)-off < frameSize {
			return off, recs, &CorruptError{Segment: name, Offset: int64(off), Reason: "short frame header"}
		}
		fseq := binary.LittleEndian.Uint64(b[off : off+8])
		kind := b[off+8]
		length := binary.LittleEndian.Uint32(b[off+9 : off+13])
		crc := binary.LittleEndian.Uint32(b[off+13 : off+17])
		if length > MaxPayload {
			return off, recs, &CorruptError{Segment: name, Offset: int64(off), Reason: "implausible frame length"}
		}
		if len(b)-off-frameSize < int(length) {
			return off, recs, &CorruptError{Segment: name, Offset: int64(off), Reason: "short frame payload"}
		}
		payload := b[off+frameSize : off+frameSize+int(length)]
		if frameCRC(fseq, kind, payload) != crc {
			return off, recs, &CorruptError{Segment: name, Offset: int64(off), Reason: "checksum mismatch"}
		}
		if fseq != seq+1 {
			return off, recs, &CorruptError{Segment: name, Offset: int64(off), Reason: fmt.Sprintf("sequence gap: %d after %d", fseq, seq)}
		}
		seq = fseq
		recs = append(recs, Record{Seq: fseq, Kind: kind, Payload: append([]byte(nil), payload...)})
		off += frameSize + int(length)
	}
	return off, recs, nil
}

// appendFrame appends one encoded frame to buf and returns the extended
// slice — the single frame-encoding path shared by Append and AppendBatch.
func appendFrame(buf []byte, seq uint64, kind uint8, payload []byte) []byte {
	var hdr [frameSize]byte
	binary.LittleEndian.PutUint64(hdr[0:8], seq)
	hdr[8] = kind
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[13:17], frameCRC(seq, kind, payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

func frameCRC(seq uint64, kind uint8, payload []byte) uint32 {
	var hdr [13]byte
	binary.LittleEndian.PutUint64(hdr[0:8], seq)
	hdr[8] = kind
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[:])
	return crc32.Update(crc, castagnoli, payload)
}

type segment struct {
	name  string
	index int
}

func segmentName(i int) string { return fmt.Sprintf("seg-%08d.wal", i) }

// segments lists the segment files of dir in index order, validating the
// numbering is contiguous from 1.
func segments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(name, "seg-%08d.wal", &idx); err != nil || idx < 1 {
			continue
		}
		segs = append(segs, segment{name: name, index: idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	for i, s := range segs {
		if s.index != i+1 {
			return nil, &CorruptError{Segment: s.name, Offset: 0, Reason: fmt.Sprintf("segment numbering gap: want %d", i+1)}
		}
	}
	return segs, nil
}
