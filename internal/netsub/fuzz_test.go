package netsub

import (
	"bytes"
	"errors"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/msgnet"
)

// FuzzDecodeFrame hammers the wire decoder with arbitrary bytes: it must
// never panic, never accept a frame it cannot re-encode byte-identically,
// and classify every rejection as one of the three structured decode
// errors — truncated (wait for more bytes), oversize, or corrupt (tear
// the stream down). The seed corpus under testdata/fuzz/FuzzDecodeFrame
// pins the interesting shapes: valid frames of every kind, truncations
// at each boundary, and single-bit corruptions of each header field. An
// accepted value or hello must re-encode to the bytes it was decoded from,
// so an overlong varint is a rejection, never a second spelling.
func FuzzDecodeFrame(f *testing.F) {
	valid := func(kind FrameKind, payload []byte) []byte {
		buf, err := AppendFrame(nil, kind, payload)
		if err != nil {
			f.Fatalf("seed frame: %v", err)
		}
		return buf
	}
	hello := valid(FrameHello, appendHello(nil, hello{pid: 1, n: 3, incarnation: 1}))
	body, _ := AppendValue(nil, msgnet.RoundMsg{Round: 2, Value: "p1@r2"})
	data := valid(FrameData, body)

	f.Add([]byte{})
	f.Add(hello)
	f.Add(data)
	f.Add(valid(FrameHeartbeat, []byte{0x80, 0x02}))
	f.Add(valid(FrameHeartbeatAck, nil))
	f.Add(data[:headerSize-1])                                          // header cut short
	f.Add(data[:len(data)-1])                                           // trailer cut short
	f.Add(append([]byte{0}, data...))                                   // misaligned stream
	f.Add(valid(FrameData, []byte{tagRoundMsg, 2, tagInt, 0x80, 0x00})) // overlong 0
	f.Add(valid(FrameHello, []byte{helloVersion, 0x81, 0x00, 3, 1}))    // overlong pid

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			var trunc *TruncatedFrameError
			var oversize *OversizeFrameError
			var corrupt *CorruptFrameError
			if !errors.As(err, &trunc) && !errors.As(err, &oversize) && !errors.As(err, &corrupt) {
				t.Fatalf("unstructured decode error %T: %v", err, err)
			}
			return
		}
		if n < headerSize+trailerSize || n > len(b) {
			t.Fatalf("consumed %d of %d", n, len(b))
		}
		if len(fr.Payload) > MaxFramePayload {
			t.Fatalf("accepted %d-byte payload", len(fr.Payload))
		}
		// An accepted frame must re-encode to exactly the bytes decoded.
		re, err := AppendFrame(nil, fr.Kind, fr.Payload)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("re-encode mismatch:\n got % X\nwant % X", re, b[:n])
		}
		// A data frame's payload must decode to a value or be rejected
		// with a structured error — never a panic — and a decoded value
		// or hello must have been spelled the one way the encoder spells it.
		switch fr.Kind {
		case FrameData:
			v, n, err := DecodeValue(fr.Payload)
			if err != nil {
				var corrupt *CorruptFrameError
				if !errors.As(err, &corrupt) {
					t.Fatalf("unstructured value error %T: %v", err, err)
				}
				return
			}
			if re, err := AppendValue(nil, v); err != nil || !bytes.Equal(re, fr.Payload[:n]) {
				t.Fatalf("value %#v re-encodes to % X (%v), decoded from % X", v, re, err, fr.Payload[:n])
			}
		case FrameHello:
			if h, err := decodeHello(fr.Payload); err == nil && !bytes.Equal(appendHello(nil, h), fr.Payload) {
				t.Fatalf("hello %+v re-encodes to % X, decoded from % X", h, appendHello(nil, h), fr.Payload)
			}
		}
	})
}

// TestDataSeedDecodesWhole: the checked-in valid-data seed is a Send frame
// as the wire has always spelled it. It decodes whole to the round message
// it carries, and Send's encoder writes exactly its bytes.
func TestDataSeedDecodesWhole(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeFrame/valid-data")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	seed, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("seed %q: %v", lit, err)
	}
	fr, n, err := DecodeFrame([]byte(seed))
	if err != nil || n != len(seed) || fr.Kind != FrameData {
		t.Fatalf("frame: %v, %d of %d bytes, kind %v", err, n, len(seed), fr.Kind)
	}
	want := msgnet.RoundMsg{Round: 2, Value: "p1@r2"}
	if v, k, err := DecodeValue(fr.Payload); err != nil || k != len(fr.Payload) || v != want {
		t.Fatalf("payload decodes to %#v (%d of %d bytes), %v; want %#v", v, k, len(fr.Payload), err, want)
	}
	if frame, err := appendValueFrame(nil, want); err != nil || string(frame) != seed {
		t.Fatalf("Send frames %#v as % X (%v), want the seed % X", want, frame, err, seed)
	}
}
