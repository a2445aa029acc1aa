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

	// FrameData carries one round message (see AppendValue), or the
	// bytes SendBytes was given.
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

// Value encoding. A Send carries one round message, m_{i,r} of §2 item 3:
// a msgnet.RoundMsg whose value is nil, an int or a string, and nothing
// else. It is spelled tagRoundMsg, the uvarint round, then the value's
// one-byte tag and its body. The vocabulary is closed and tiny — the
// shapes the round protocols put on the wire — rather than a reflective
// codec, so a corrupt byte can never decode into an unexpected type.
const (
	tagNil      = 0x00
	tagInt      = 0x01 // zigzag varint
	tagString   = 0x02 // uvarint length + bytes
	tagRoundMsg = 0x05 // uvarint round + one of the above
)

// RoundMsg is msgnet.RoundMsg. This package spells it msgnet.RoundMsg; the
// alias stays only because bench/ladder.go names it, and goes with the next
// change to bench/.
type RoundMsg = msgnet.RoundMsg

// vet refuses a value outside the wire vocabulary with an
// *UnsupportedTypeError: a caller bug, not a network condition.
func vet(v core.Value) error {
	m, ok := v.(msgnet.RoundMsg)
	if !ok {
		return &UnsupportedTypeError{Value: v}
	}
	switch m.Value.(type) {
	case nil, int, string:
		return nil
	}
	return &UnsupportedTypeError{Value: m.Value}
}

// AppendValue appends the wire encoding of v, a msgnet.RoundMsg over nil,
// an int or a string, to dst. Anything else is refused (see vet).
func AppendValue(dst []byte, v core.Value) ([]byte, error) {
	if err := vet(v); err != nil {
		return dst, err
	}
	m := v.(msgnet.RoundMsg)
	dst = binary.AppendUvarint(append(dst, tagRoundMsg), uint64(m.Round))
	switch x := m.Value.(type) {
	case int:
		return binary.AppendVarint(append(dst, tagInt), int64(x)), nil
	case string:
		dst = binary.AppendUvarint(append(dst, tagString), uint64(len(x)))
		return append(dst, x...), nil
	}
	return append(dst, tagNil), nil
}

// DecodeValue decodes one round message from the front of b, returning it
// and the bytes consumed. Anything else — another shape, a malformed body,
// an overlong varint — yields a *CorruptFrameError: a value has one
// encoding, AppendValue's.
func DecodeValue(b []byte) (core.Value, int, error) {
	if len(b) == 0 || b[0] != tagRoundMsg {
		return nil, 0, &CorruptFrameError{Field: "value", Detail: "not a round message"}
	}
	r, n := binary.Uvarint(b[1:])
	if n <= 0 || overlong(b[1:], n) || r > uint64(MaxFramePayload) {
		return nil, 0, &CorruptFrameError{Field: "value", Detail: "bad round"}
	}
	m, body := msgnet.RoundMsg{Round: int(r)}, b[1+n:]
	if len(body) == 0 {
		return nil, 0, &CorruptFrameError{Field: "value", Detail: "empty"}
	}
	head := 1 + n + 1 // through the value's tag
	switch body[0] {
	case tagNil:
		return m, head, nil
	case tagInt:
		v, k := binary.Varint(body[1:])
		if k <= 0 || overlong(body[1:], k) {
			return nil, 0, &CorruptFrameError{Field: "value", Detail: "bad varint"}
		}
		m.Value = int(v)
		return m, head + k, nil
	case tagString:
		l, k := binary.Uvarint(body[1:])
		if k <= 0 || overlong(body[1:], k) || l > uint64(MaxFramePayload) || uint64(len(body)-1-k) < l {
			return nil, 0, &CorruptFrameError{Field: "value", Detail: "bad string length"}
		}
		m.Value = string(body[1+k : 1+k+int(l)])
		return m, head + k + int(l), nil
	default:
		return nil, 0, &CorruptFrameError{Field: "value", Detail: fmt.Sprintf("unknown tag 0x%02X", body[0])}
	}
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
