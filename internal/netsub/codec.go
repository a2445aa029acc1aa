package netsub

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/msgnet"
)

// Wire format. Every frame is length-prefixed and checksummed:
//
//	magic   uint16  0x52F0 ("RRFD net", big endian)
//	kind    uint8   frame kind
//	flags   uint8   reserved, must be 0
//	length  uint32  payload length, big endian
//	payload length bytes
//	crc32   uint32  IEEE over kind|flags|length|payload, big endian
//
// A reader that sees a bad magic, a non-zero flag byte, an oversized
// length, or a checksum mismatch cannot trust anything that follows on
// the stream — framing is lost — so decode errors are structured and
// terminal: the connection is torn down and redialed, which is exactly
// the recover-by-reconnect discipline of the peer pool.
const (
	frameMagic   = 0x52F0
	headerSize   = 8
	trailerSize  = 4
	maxTotalSize = headerSize + MaxFramePayload + trailerSize

	// MaxFramePayload bounds a frame's payload. A length field above it
	// is rejected before any allocation, so a corrupt or hostile length
	// cannot balloon memory.
	MaxFramePayload = 1 << 20
)

// FrameKind discriminates the frame types of the netsub wire protocol.
type FrameKind uint8

const (
	// FrameHello opens a connection: version, sender pid, mesh size,
	// incarnation. Only the dialer writes it, as the first frame on the
	// connection; the accepting side writes nothing back.
	FrameHello FrameKind = 1

	// FrameHeartbeat carries the sender's nanosecond clock; the
	// receiver echoes it back in a FrameHeartbeatAck so the sender can
	// histogram round-trip times.
	FrameHeartbeat FrameKind = 2

	// FrameHeartbeatAck echoes a heartbeat's timestamp. It travels on the
	// reverse connection, the one the receiver dialed to the sender.
	FrameHeartbeatAck FrameKind = 3

	// FrameData carries one application value (see AppendValue), or
	// the bytes SendBytes was given.
	FrameData FrameKind = 4
)

func (k FrameKind) String() string {
	switch k {
	case FrameHello:
		return "hello"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameHeartbeatAck:
		return "heartbeat-ack"
	case FrameData:
		return "data"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Frame is one decoded wire frame. Payload aliases the decode input (or
// the read buffer); callers that retain it must copy.
type Frame struct {
	Kind    FrameKind
	Payload []byte
}

// AppendFrame appends the encoded frame to dst and returns the extended
// slice. Payloads above MaxFramePayload are refused with an
// *OversizeFrameError (the encoder enforces the same bound decoders do).
func AppendFrame(dst []byte, kind FrameKind, payload []byte) ([]byte, error) {
	if len(payload) > MaxFramePayload {
		return dst, &OversizeFrameError{Length: len(payload), Max: MaxFramePayload}
	}
	off := len(dst)
	dst = append(append(dst, make([]byte, headerSize)...), payload...)
	return endFrame(dst, off, kind), nil
}

// appendValueFrame appends a FrameData frame carrying v, encoding v in
// place: the frame costs no buffer of its own.
func appendValueFrame(dst []byte, v core.Value) ([]byte, error) {
	off := len(dst)
	dst, err := AppendValue(append(dst, make([]byte, headerSize)...), v)
	if err != nil {
		return dst[:off], err
	}
	if n := len(dst) - off - headerSize; n > MaxFramePayload {
		return dst[:off], &OversizeFrameError{Length: n, Max: MaxFramePayload}
	}
	return endFrame(dst, off, FrameData), nil
}

// endFrame fills in the header of the frame whose payload follows the
// headerSize bytes at dst[off:], and appends its checksum.
func endFrame(dst []byte, off int, kind FrameKind) []byte {
	h := dst[off : off+headerSize]
	binary.BigEndian.PutUint16(h, frameMagic)
	h[2], h[3] = byte(kind), 0
	binary.BigEndian.PutUint32(h[4:], uint32(len(dst)-off-headerSize))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[off+2:]))
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. A short buffer yields a
// *TruncatedFrameError (wait for more bytes); everything else that fails
// yields an *OversizeFrameError or *CorruptFrameError (tear the stream
// down). The frame's payload aliases b.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < headerSize {
		return Frame{}, 0, &TruncatedFrameError{Need: headerSize, Got: len(b)}
	}
	kind, length, err := checkHeader(b)
	if err != nil {
		return Frame{}, 0, err
	}
	total := headerSize + length + trailerSize
	if len(b) < total {
		return Frame{}, 0, &TruncatedFrameError{Need: total, Got: len(b)}
	}
	body := b[2 : headerSize+length]
	want := binary.BigEndian.Uint32(b[headerSize+length:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return Frame{}, 0, &CorruptFrameError{Field: "crc", Detail: fmt.Sprintf("computed 0x%08X, stored 0x%08X", got, want)}
	}
	return Frame{Kind: kind, Payload: b[headerSize : headerSize+length]}, total, nil
}

// checkHeader validates the headerSize bytes at the front of b — magic,
// kind, flags and a length within MaxFramePayload — and returns the kind
// and the payload length. No length is trusted before it passes here.
func checkHeader(b []byte) (FrameKind, int, error) {
	if m := binary.BigEndian.Uint16(b); m != frameMagic {
		return 0, 0, &CorruptFrameError{Field: "magic", Detail: fmt.Sprintf("0x%04X", m)}
	}
	kind := FrameKind(b[2])
	if kind < FrameHello || kind > FrameData {
		return 0, 0, &CorruptFrameError{Field: "kind", Detail: kind.String()}
	}
	if b[3] != 0 {
		return 0, 0, &CorruptFrameError{Field: "flags", Detail: fmt.Sprintf("0x%02X", b[3])}
	}
	length := binary.BigEndian.Uint32(b[4:])
	if length > MaxFramePayload {
		return 0, 0, &OversizeFrameError{Length: int(length), Max: MaxFramePayload}
	}
	return kind, int(length), nil
}

// ReadFrame reads exactly one frame from a buffered stream. The returned
// payload aliases an internal buffer valid until the next call with the
// same scratch. io.EOF at a frame boundary is returned as-is; EOF inside
// a frame surfaces as a *TruncatedFrameError.
func ReadFrame(br *bufio.Reader, scratch *[]byte) (Frame, error) {
	header, err := peekExactly(br, headerSize)
	if err != nil {
		return Frame{}, err
	}
	// Validate everything the header can tell us before trusting the
	// length field to drive a blocking read.
	_, length, err := checkHeader(header)
	if err != nil {
		return Frame{}, err
	}
	total := headerSize + length + trailerSize
	if cap(*scratch) < total {
		*scratch = make([]byte, total)
	}
	buf := (*scratch)[:total]
	if _, err := io.ReadFull(br, buf); err != nil {
		return Frame{}, &TruncatedFrameError{Need: total, Got: br.Buffered()}
	}
	f, _, err := DecodeFrame(buf)
	return f, err
}

// peekExactly peeks n bytes, mapping a mid-header EOF to a truncation
// error and a clean EOF (no bytes at all) to io.EOF.
func peekExactly(br *bufio.Reader, n int) ([]byte, error) {
	b, err := br.Peek(n)
	if err == nil {
		return b, nil
	}
	if len(b) == 0 && err == io.EOF {
		return nil, io.EOF
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, &TruncatedFrameError{Need: n, Got: len(b)}
	}
	return nil, err
}

// Value encoding: a one-byte tag followed by a tag-specific body. The
// substrate deliberately speaks a tiny closed vocabulary — the types the
// round protocols actually put on the wire — rather than a reflective
// codec, so a corrupt byte can never decode into an unexpected type.
const (
	tagNil      = 0x00
	tagInt      = 0x01 // zigzag varint
	tagString   = 0x02 // uvarint length + bytes
	tagBytes    = 0x03 // uvarint length + bytes
	tagBool     = 0x04 // one byte, 0 or 1
	tagRoundMsg = 0x05 // uvarint round + nested value
)

// RoundMsg is msgnet.RoundMsg. This package spells it msgnet.RoundMsg; the
// alias stays only because bench/ladder.go names it, and goes with the next
// change to bench/.
type RoundMsg = msgnet.RoundMsg

// AppendValue appends the wire encoding of v to dst. Supported types:
// nil, int, string, []byte, bool, msgnet.RoundMsg. Anything else is a caller
// bug and is reported as an *UnsupportedTypeError.
func AppendValue(dst []byte, v core.Value) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case int:
		dst = append(dst, tagInt)
		return binary.AppendVarint(dst, int64(x)), nil
	case string:
		dst = append(dst, tagString)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...), nil
	case []byte:
		dst = append(dst, tagBytes)
		dst = binary.AppendUvarint(dst, uint64(len(x)))
		return append(dst, x...), nil
	case bool:
		b := byte(0)
		if x {
			b = 1
		}
		return append(dst, tagBool, b), nil
	case msgnet.RoundMsg:
		dst = append(dst, tagRoundMsg)
		dst = binary.AppendUvarint(dst, uint64(x.Round))
		return AppendValue(dst, x.Value)
	default:
		return dst, &UnsupportedTypeError{Value: v}
	}
}

// DecodeValue decodes one value from the front of b, returning it and
// the bytes consumed. Malformed bodies, overlong varints included, yield a
// *CorruptFrameError: a value has one encoding, AppendValue's.
func DecodeValue(b []byte) (core.Value, int, error) {
	if len(b) == 0 {
		return nil, 0, &CorruptFrameError{Field: "value", Detail: "empty"}
	}
	switch b[0] {
	case tagNil:
		return nil, 1, nil
	case tagInt:
		v, n := binary.Varint(b[1:])
		if n <= 0 || overlong(b[1:], n) {
			return nil, 0, &CorruptFrameError{Field: "value", Detail: "bad varint"}
		}
		return int(v), 1 + n, nil
	case tagString:
		s, n, err := decodeBlob(b[1:], "string")
		if err != nil {
			return nil, 0, err
		}
		return string(s), 1 + n, nil
	case tagBytes:
		s, n, err := decodeBlob(b[1:], "bytes")
		if err != nil {
			return nil, 0, err
		}
		return append([]byte(nil), s...), 1 + n, nil
	case tagBool:
		if len(b) < 2 || b[1] > 1 {
			return nil, 0, &CorruptFrameError{Field: "value", Detail: "bad bool"}
		}
		return b[1] == 1, 2, nil
	case tagRoundMsg:
		r, n := binary.Uvarint(b[1:])
		if n <= 0 || overlong(b[1:], n) || r > uint64(MaxFramePayload) {
			return nil, 0, &CorruptFrameError{Field: "value", Detail: "bad round"}
		}
		inner, m, err := DecodeValue(b[1+n:])
		if err != nil {
			return nil, 0, err
		}
		return msgnet.RoundMsg{Round: int(r), Value: inner}, 1 + n + m, nil
	default:
		return nil, 0, &CorruptFrameError{Field: "value", Detail: fmt.Sprintf("unknown tag 0x%02X", b[0])}
	}
}

func decodeBlob(b []byte, what string) ([]byte, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || overlong(b, n) || l > uint64(MaxFramePayload) || uint64(len(b)-n) < l {
		return nil, 0, &CorruptFrameError{Field: "value", Detail: "bad " + what + " length"}
	}
	return b[n : n+int(l)], n + int(l), nil
}

// overlong reports whether the n-byte varint at the head of b is longer
// than the binary.Append(U)varint spelling of its value (a zero final
// byte).
func overlong(b []byte, n int) bool { return n > 1 && b[n-1] == 0 }

// hello is the handshake payload.
type hello struct {
	pid         core.PID
	n           int
	incarnation int
}

const helloVersion = 1

func appendHello(dst []byte, h hello) []byte {
	dst = append(dst, helloVersion)
	dst = binary.AppendUvarint(dst, uint64(h.pid))
	dst = binary.AppendUvarint(dst, uint64(h.n))
	return binary.AppendUvarint(dst, uint64(h.incarnation))
}

// decodeHello parses a hello payload, refusing overlong fields and trailing
// bytes: a hello has one encoding, appendHello's.
func decodeHello(b []byte) (hello, error) {
	if len(b) == 0 || b[0] != helloVersion {
		return hello{}, &CorruptFrameError{Field: "hello", Detail: "bad version"}
	}
	rest := b[1:]
	var vals [3]uint64
	for i := range vals {
		v, n := binary.Uvarint(rest)
		if n <= 0 || overlong(rest, n) || v > 1<<20 {
			return hello{}, &CorruptFrameError{Field: "hello", Detail: "bad field"}
		}
		vals[i] = v
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return hello{}, &CorruptFrameError{Field: "hello", Detail: fmt.Sprintf("%d trailing bytes", len(rest))}
	}
	return hello{pid: core.PID(vals[0]), n: int(vals[1]), incarnation: int(vals[2])}, nil
}
