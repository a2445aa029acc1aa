package netsub

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/msgnet"
)

func mustFrame(t *testing.T, kind FrameKind, payload []byte) []byte {
	t.Helper()
	buf, err := AppendFrame(nil, kind, payload)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	return buf
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		kind    FrameKind
		payload []byte
	}{
		{FrameHello, appendHello(nil, hello{pid: 2, n: 5, incarnation: 1})},
		{FrameHeartbeat, []byte{0x80, 0x01}},
		{FrameHeartbeatAck, nil},
		{FrameData, bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for _, c := range cases {
		buf := mustFrame(t, c.kind, c.payload)
		f, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("%s: DecodeFrame: %v", c.kind, err)
		}
		if n != len(buf) {
			t.Fatalf("%s: consumed %d of %d", c.kind, n, len(buf))
		}
		if f.Kind != c.kind || !bytes.Equal(f.Payload, c.payload) {
			t.Fatalf("%s: round-trip mismatch", c.kind)
		}
	}
}

func TestDecodeFrameErrorTaxonomy(t *testing.T) {
	good := mustFrame(t, FrameData, []byte("hello"))

	var trunc *TruncatedFrameError
	var corrupt *CorruptFrameError
	var oversize *OversizeFrameError

	// Short header and short body are both "wait for more bytes".
	if _, _, err := DecodeFrame(good[:3]); !errors.As(err, &trunc) {
		t.Fatalf("short header: %v", err)
	}
	if _, _, err := DecodeFrame(good[:len(good)-1]); !errors.As(err, &trunc) {
		t.Fatalf("short body: %v", err)
	}

	bad := append([]byte(nil), good...)
	bad[0] = 0xFF
	if _, _, err := DecodeFrame(bad); !errors.As(err, &corrupt) || corrupt.Field != "magic" {
		t.Fatalf("bad magic: %v", err)
	}

	bad = append(bad[:0], good...)
	bad[2] = 99
	if _, _, err := DecodeFrame(bad); !errors.As(err, &corrupt) || corrupt.Field != "kind" {
		t.Fatalf("bad kind: %v", err)
	}

	bad = append(bad[:0], good...)
	bad[3] = 1
	if _, _, err := DecodeFrame(bad); !errors.As(err, &corrupt) || corrupt.Field != "flags" {
		t.Fatalf("bad flags: %v", err)
	}

	bad = append(bad[:0], good...)
	bad[4] = 0xFF // length field far above MaxFramePayload
	if _, _, err := DecodeFrame(bad); !errors.As(err, &oversize) {
		t.Fatalf("oversize length: %v", err)
	}

	bad = append(bad[:0], good...)
	bad[headerSize] ^= 0x01 // flip a payload bit
	if _, _, err := DecodeFrame(bad); !errors.As(err, &corrupt) || corrupt.Field != "crc" {
		t.Fatalf("payload corruption: %v", err)
	}
}

func TestAppendFrameRefusesOversize(t *testing.T) {
	var oversize *OversizeFrameError
	if _, err := AppendFrame(nil, FrameData, make([]byte, MaxFramePayload+1)); !errors.As(err, &oversize) {
		t.Fatalf("want OversizeFrameError, got %v", err)
	}
}

func TestReadFrameStream(t *testing.T) {
	var stream []byte
	stream = append(stream, mustFrame(t, FrameData, []byte("one"))...)
	stream = append(stream, mustFrame(t, FrameHeartbeat, []byte{7})...)
	br := bufio.NewReader(bytes.NewReader(stream))
	var scratch []byte

	f, err := ReadFrame(br, &scratch)
	if err != nil || f.Kind != FrameData || string(f.Payload) != "one" {
		t.Fatalf("frame 1: %v %v", f, err)
	}
	f, err = ReadFrame(br, &scratch)
	if err != nil || f.Kind != FrameHeartbeat {
		t.Fatalf("frame 2: %v %v", f, err)
	}
	if _, err = ReadFrame(br, &scratch); err != io.EOF {
		t.Fatalf("clean EOF: %v", err)
	}

	// Garbage at the stream head is terminal, not a hang: the corrupt
	// header is rejected before its length field can drive a read.
	garbage := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF, 0xFF}
	br = bufio.NewReader(bytes.NewReader(garbage))
	var corrupt *CorruptFrameError
	if _, err := ReadFrame(br, &scratch); !errors.As(err, &corrupt) {
		t.Fatalf("garbage header: %v", err)
	}

	// A frame cut off mid-body is a truncation.
	cut := mustFrame(t, FrameData, []byte("truncate me"))
	br = bufio.NewReader(bytes.NewReader(cut[:len(cut)-3]))
	var trunc *TruncatedFrameError
	if _, err := ReadFrame(br, &scratch); !errors.As(err, &trunc) {
		t.Fatalf("mid-frame EOF: %v", err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	values := []core.Value{
		msgnet.RoundMsg{Round: 0, Value: nil},
		msgnet.RoundMsg{Round: 1, Value: 0},
		msgnet.RoundMsg{Round: 2, Value: -1},
		msgnet.RoundMsg{Round: 3, Value: 1 << 40},
		msgnet.RoundMsg{Round: 4, Value: ""},
		msgnet.RoundMsg{Round: 12, Value: "payload"},
		msgnet.RoundMsg{Round: MaxFramePayload, Value: "p3@r7"},
	}
	for _, v := range values {
		buf, err := AppendValue(nil, v)
		if err != nil {
			t.Fatalf("AppendValue(%v): %v", v, err)
		}
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if n != len(buf) {
			t.Fatalf("%v: consumed %d of %d", v, n, len(buf))
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round-trip: got %#v, want %#v", got, v)
		}
	}
}

func TestValueRejectsUnsupported(t *testing.T) {
	var unsupported *UnsupportedTypeError
	for _, v := range []core.Value{3.14, msgnet.RoundMsg{Round: 1, Value: 3.14}} {
		if b, err := AppendValue([]byte("kept"), v); !errors.As(err, &unsupported) || string(b) != "kept" {
			t.Fatalf("%#v: appended % X, %v", v, b, err)
		}
	}
}

// TestRetiredShapesAreRefused: a Send carries one round message over nil,
// an int or a string. Every other shape — a bare value, []byte, bool, a
// nested round message — is refused by Send, to a peer and to self alike,
// with an *UnsupportedTypeError, and the spelling it once had is refused on
// receipt with a *CorruptFrameError.
func TestRetiredShapesAreRefused(t *testing.T) {
	const tagBytes, tagBool = 0x03, 0x04 // retired tags
	nodes := startMesh(t, 2, nil)
	for _, c := range []struct {
		v    core.Value
		wire []byte
	}{
		{nil, []byte{tagNil}},
		{7, []byte{tagInt, 0x0E}},
		{"bare", []byte{tagString, 4, 'b', 'a', 'r', 'e'}},
		{[]byte{1, 2}, []byte{tagBytes, 2, 1, 2}},
		{true, []byte{tagBool, 1}},
		{rm([]byte{1, 2}), []byte{tagRoundMsg, 1, tagBytes, 2, 1, 2}},
		{rm(false), []byte{tagRoundMsg, 1, tagBool, 0}},
		{rm(rm(7)), []byte{tagRoundMsg, 1, tagRoundMsg, 1, tagInt, 0x0E}},
	} {
		for to := core.PID(0); to < 2; to++ {
			var unsupported *UnsupportedTypeError
			if err := nodes[0].Send(to, c.v); !errors.As(err, &unsupported) {
				t.Errorf("Send(p%d, %#v) = %v, want an *UnsupportedTypeError", to, c.v, err)
			}
		}
		var corrupt *CorruptFrameError
		if v, _, err := DecodeValue(c.wire); !errors.As(err, &corrupt) {
			t.Errorf("DecodeValue(% X) = %#v, %v; want a *CorruptFrameError", c.wire, v, err)
		}
	}
	if st := nodes[0].Stats(); st.FramesSent != 0 || st.Sheds != 0 {
		t.Fatalf("refused sends counted: %+v", st)
	}
}

func TestDecodeValueErrors(t *testing.T) {
	var corrupt *CorruptFrameError
	bad := [][]byte{
		{},                                  // empty
		{0xEE},                              // unknown tag
		{tagRoundMsg},                       // round missing
		{tagRoundMsg, 0xFF},                 // unterminated round varint
		{tagRoundMsg, 1},                    // value missing
		{tagRoundMsg, 1, 0xEE},              // unknown value tag
		{tagRoundMsg, 1, tagInt},            // int missing
		{tagRoundMsg, 1, tagString, 0xFF},   // unterminated length varint
		{tagRoundMsg, 1, tagString, 5, 'a'}, // length beyond buffer
	}
	for _, b := range bad {
		if _, _, err := DecodeValue(b); !errors.As(err, &corrupt) {
			t.Fatalf("DecodeValue(% X): %v", b, err)
		}
	}
}

// TestDecodersRefuseNonCanonical holds every decoder to one spelling per
// value: a varint with a zero final byte past its first (the overlong form
// of a shorter one) and a hello with bytes after its last field are
// corrupt, not a second encoding of what AppendValue or appendHello write.
func TestDecodersRefuseNonCanonical(t *testing.T) {
	var corrupt *CorruptFrameError
	values := []struct {
		name string
		b    []byte
	}{
		{"overlong int 0", []byte{tagRoundMsg, 1, tagInt, 0x80, 0x00}},
		{"overlong int -1", []byte{tagRoundMsg, 1, tagInt, 0x81, 0x80, 0x00}},
		{"overlong string length", []byte{tagRoundMsg, 1, tagString, 0x81, 0x00, 'a'}},
		{"overlong empty string length", []byte{tagRoundMsg, 1, tagString, 0x80, 0x00}},
		{"overlong round", []byte{tagRoundMsg, 0x82, 0x00, tagNil}},
		{"overlong int 2", []byte{tagRoundMsg, 2, tagInt, 0x84, 0x80, 0x00}},
	}
	for _, c := range values {
		if v, _, err := DecodeValue(c.b); !errors.As(err, &corrupt) {
			t.Errorf("DecodeValue(%s: % X) = %#v, %v; want a *CorruptFrameError", c.name, c.b, v, err)
		}
	}
	hellos := []struct {
		name string
		b    []byte
	}{
		{"overlong pid", []byte{helloVersion, 0x81, 0x00, 3, 1}},
		{"overlong n", []byte{helloVersion, 1, 0x83, 0x80, 0x00, 1}},
		{"overlong incarnation", []byte{helloVersion, 1, 3, 0x81, 0x00}},
		{"trailing byte", append(appendHello(nil, hello{pid: 1, n: 3, incarnation: 1}), 0)},
	}
	for _, c := range hellos {
		if h, err := decodeHello(c.b); !errors.As(err, &corrupt) {
			t.Errorf("decodeHello(%s: % X) = %+v, %v; want a *CorruptFrameError", c.name, c.b, h, err)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := hello{pid: 3, n: 7, incarnation: 2}
	got, err := decodeHello(appendHello(nil, h))
	if err != nil || got != h {
		t.Fatalf("got %+v, %v", got, err)
	}
	var corrupt *CorruptFrameError
	if _, err := decodeHello([]byte{99, 1, 2, 3}); !errors.As(err, &corrupt) {
		t.Fatalf("bad version: %v", err)
	}
	if _, err := decodeHello(nil); !errors.As(err, &corrupt) {
		t.Fatalf("empty: %v", err)
	}
}
