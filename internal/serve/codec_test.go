package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"
)

// encoderLine is the reference: what the json.Encoder of the parent of
// PR 20 put on the wire for v.
func encoderLine(t testing.TB, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("json.Encoder: %v", err)
	}
	return buf.String()
}

// TestWireGolden pins the client protocol to the byte: one line of each
// kind equals both the recorded text and the reference encoder's output.
func TestWireGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"submit", &Request{Op: "submit", Inst: "job-1", Req: "r1", Val: 42, TimeoutMS: 2000},
			`{"op":"submit","inst":"job-1","req":"r1","val":42,"timeout_ms":2000}`},
		{"query", &Request{Op: "query", Inst: "job-1"},
			`{"op":"query","inst":"job-1"}`},
		{"decided", &Response{Req: "r1", Inst: "job-1", Status: StatusDecided, Val: -7, Incarnation: 2},
			`{"req":"r1","inst":"job-1","status":"decided","val":-7,"incarnation":2}`},
		{"abstain", &Response{Req: "r1", Inst: "job-1", Status: StatusAbstain, Gathered: 1, Need: 2, Incarnation: 1},
			`{"req":"r1","inst":"job-1","status":"abstain","gathered":1,"need":2,"incarnation":1}`},
		{"overload", &Response{Req: "r1", Inst: "job-1", Status: StatusOverload, Inflight: 1024, Max: 1024, Incarnation: 1},
			`{"req":"r1","inst":"job-1","status":"overload","inflight":1024,"max":1024,"incarnation":1}`},
		{"error", &Response{Status: StatusError, Err: "unknown op <nul>"},
			`{"status":"error","err":"unknown op \u003cnul\u003e"}`},
	} {
		var got []byte
		switch v := tc.v.(type) {
		case *Request:
			got = appendRequest(nil, v)
		case *Response:
			got = appendResponse(nil, v)
		}
		if string(got) != tc.want+"\n" {
			t.Errorf("%s: wrote %q, want %q", tc.name, got, tc.want+"\n")
		}
		if ref := encoderLine(t, tc.v); string(got) != ref {
			t.Errorf("%s: wrote %q, json.Encoder %q", tc.name, got, ref)
		}
	}
}

// wireString draws a field value: mostly what clients send, but also
// every byte the encoder must escape — control bytes, quotes, <>&,
// U+2028, invalid UTF-8.
func wireString(rng *rand.Rand) string {
	const friendly = "abcXYZ019-_.:/ "
	const hostile = "\"\\<>&\x00\x1f\x7f\n\t\xff\xc0\xe2\x80\xa8é{}"
	b := make([]byte, rng.Intn(12))
	for i := range b {
		switch rng.Intn(8) {
		case 0:
			b[i] = hostile[rng.Intn(len(hostile))]
		case 1:
			b[i] = byte(rng.Intn(256))
		default:
			b[i] = friendly[rng.Intn(len(friendly))]
		}
	}
	if rng.Intn(4) == 0 {
		for i := range b {
			b[i] = friendly[rng.Intn(len(friendly))]
		}
	}
	return string(b)
}

func wireInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return int(rng.Uint64())
	}
	return rng.Intn(4001) - 2000
}

// TestAppendEqualsMarshal: for arbitrary field values the encoders write
// json.Marshal's bytes and a newline, and the parsers read them back.
func TestAppendEqualsMarshal(t *testing.T) {
	cfg := &quick.Config{MaxCount: 5000, Values: func(args []reflect.Value, rng *rand.Rand) {
		args[0] = reflect.ValueOf(Request{
			Op: wireString(rng), Inst: wireString(rng), Req: wireString(rng),
			Val: wireInt(rng), TimeoutMS: wireInt(rng),
		})
		args[1] = reflect.ValueOf(Response{
			Req: wireString(rng), Inst: wireString(rng), Status: Status(wireString(rng)),
			Val: wireInt(rng), Gathered: wireInt(rng), Need: wireInt(rng), Inflight: wireInt(rng),
			Max: wireInt(rng), Incarnation: wireInt(rng), Err: wireString(rng),
		})
	}}
	prefix := []byte("kept")
	err := quick.Check(func(req Request, resp Response) bool {
		wantReq, _ := json.Marshal(req)
		wantResp, _ := json.Marshal(resp)
		gotReq := appendRequest(prefix, &req)
		gotResp := appendResponse(prefix, &resp)
		if string(gotReq) != "kept"+string(wantReq)+"\n" || string(gotResp) != "kept"+string(wantResp)+"\n" {
			t.Logf("wrote %q and %q\nwant  %q and %q", gotReq, gotResp, wantReq, wantResp)
			return false
		}
		return sameRequest(t, wantReq) && sameResponse(t, wantResp)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// sameRequest reports whether parseRequest and json.Unmarshal agree on
// line: same error-ness, same Request.
func sameRequest(t testing.TB, line []byte) bool {
	var got, want Request
	gotErr, wantErr := parseRequest(line, &got), json.Unmarshal(line, &want)
	if (gotErr == nil) != (wantErr == nil) || got != want {
		t.Logf("request line %q:\nparseRequest   %+v, %v\njson.Unmarshal %+v, %v", line, got, gotErr, want, wantErr)
		return false
	}
	return true
}

func sameResponse(t testing.TB, line []byte) bool {
	var got, want Response
	gotErr, wantErr := parseResponse(line, &got), json.Unmarshal(line, &want)
	if (gotErr == nil) != (wantErr == nil) || got != want {
		t.Logf("response line %q:\nparseResponse  %+v, %v\njson.Unmarshal %+v, %v", line, got, gotErr, want, wantErr)
		return false
	}
	return true
}

// The seed corpus of both fuzz targets is testdata/fuzz: one file per
// shape the scanner must either read exactly as encoding/json does or
// hand over (escapes and surrogates, non-ASCII, other-cased, unknown and
// duplicate keys, null, floats, 18- and 19-digit integers, -0, leading
// zeros, whitespace, trailing bytes, two objects, the empty line). Plain
// `go test` runs every file.
func FuzzRequestLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		if !sameRequest(t, line) {
			t.Fail()
		}
	})
}

func FuzzResponseLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		if !sameResponse(t, line) {
			t.Fail()
		}
	})
}

// FuzzPeerMsg: whatever a peer sends as a mesh frame's payload, its
// messages back to back, decoding it does not panic, and a payload that
// decodes whole encodes back to the same bytes, so the wire has one
// spelling per frame.
func FuzzPeerMsg(f *testing.F) {
	three := appendPeerMsg(nil, pmPropose, "a", 1)
	three = appendPeerMsg(three, pmDecide, "bb", -1)
	three = appendPeerMsg(three, pmProposeQuiet, "ccc", 1<<40)
	f.Add(appendPeerMsg(nil, pmPropose, "i0", 0))
	f.Add(appendPeerMsg(nil, pmProposeQuiet, "x", -7))
	f.Add(appendPeerMsg(nil, pmDecide, "instance", 1<<40))
	f.Add(three)
	f.Add(three[:len(three)-2]) // a cut tail
	f.Fuzz(func(t *testing.T, b []byte) {
		msgs, err := decodeFrame(b)
		if err != nil {
			return
		}
		var again []byte
		for _, m := range msgs {
			again = appendPeerMsg(again, m.kind, m.inst, m.val)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("frame %x decodes to %+v, which encodes to %x", b, msgs, again)
		}
	})
}

// endless is a reader that never sends a newline.
type endless struct{ read int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	e.read += len(p)
	return len(p), nil
}

// TestLineScannerIsBounded: a line of maxLine bytes with its newline is
// read; one that never ends is refused having buffered, and read, no more
// than maxLine.
func TestLineScannerIsBounded(t *testing.T) {
	long := strings.Repeat("x", maxLine-1)
	sc := newLineScanner(iotest.HalfReader(strings.NewReader("one\n" + long + "\n")))
	for _, want := range []string{"one", long} {
		if !sc.Scan() || sc.Text() != want {
			t.Fatalf("read %.20q (%d bytes), %v; want %.20q (%d bytes)", sc.Text(), len(sc.Bytes()), sc.Err(), want, len(want))
		}
	}
	if sc.Scan() || sc.Err() != nil {
		t.Fatalf("after the last line: %q, %v", sc.Text(), sc.Err())
	}

	src := &endless{}
	sc = newLineScanner(src)
	if sc.Scan() || sc.Err() != bufio.ErrTooLong {
		t.Fatalf("a line without end: %.20q, %v", sc.Text(), sc.Err())
	}
	if src.read > maxLine {
		t.Fatalf("read %d bytes of a line bounded at %d", src.read, maxLine)
	}
}

// TestOverlongRequestLine: a client that sends maxLine bytes and no
// newline is told so and cut off. At the parent of PR 20 the server kept
// buffering and this test hung on the read.
func TestOverlongRequestLine(t *testing.T) {
	cl := testCluster(t, 1, 0, nil)
	conn, err := net.Dial("tcp", cl.ClientAddrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	head := `{"op":"submit","inst":"`
	if _, err := conn.Write([]byte(head + strings.Repeat("a", maxLine-len(head)))); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no answer to an over-long line: %v", sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil || resp.Status != StatusError || resp.Err != "line too long" {
		t.Fatalf("answer %q, %v", sc.Bytes(), err)
	}
	if sc.Scan() || sc.Err() != nil {
		t.Fatalf("connection still open after an over-long line: %q, %v", sc.Bytes(), sc.Err())
	}
}

// TestOverlongResponseLine: the client treats a response past the bound
// as a transport failure, not as something to buffer.
func TestOverlongResponseLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write([]byte(`{"status":"decided","inst":"` + strings.Repeat("a", 2*maxLine)))
		io.Copy(io.Discard, conn)
	}()
	c := NewClient(ClientConfig{Addr: ln.Addr().String(), Timeout: 2 * time.Second, MaxAttempts: 1, Seed: 1})
	defer c.Close()
	_, err = c.Query("x")
	var ue *UnreachableError
	if !errors.As(err, &ue) || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("query answered by an endless line: %v", err)
	}
}
