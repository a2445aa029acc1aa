// The client line codec: one JSON object per line, at most maxLine bytes,
// written and read without reflection. The encoders produce the bytes
// json.Marshal would, plus '\n'. The parsers scan the subset this
// repository's own clients emit — one flat object with no whitespace, the
// exact lower-case keys, strings of unescaped printable ASCII, integer
// literals of at most 18 digits — and hand every other line whole to
// json.Unmarshal, so what is accepted, and what it means, is
// encoding/json's by construction.
package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
)

// maxLine bounds one protocol line, newline included, on both sides of a
// client connection: a peer that sends more without a newline is cut off
// (bufio.ErrTooLong) instead of buffered.
const maxLine = 64 << 10

// newLineScanner reads r line by line through a buffer that grows on
// demand and never past maxLine.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 512), maxLine)
	return sc
}

// field is one key of a protocol object and where its value lives: in a
// string or in an integer. Every integer is omitempty; a string is unless
// always is set.
type field struct {
	key    string
	s      *string
	n      *int
	always bool
}

// fields lists r's keys in the order encoding/json writes them.
func (r *Request) fields() [5]field {
	return [...]field{
		{key: "op", s: &r.Op, always: true},
		{key: "inst", s: &r.Inst, always: true},
		{key: "req", s: &r.Req},
		{key: "val", n: &r.Val},
		{key: "timeout_ms", n: &r.TimeoutMS},
	}
}

// fields lists r's keys in the order encoding/json writes them.
func (r *Response) fields() [10]field {
	return [...]field{
		{key: "req", s: &r.Req},
		{key: "inst", s: &r.Inst},
		{key: "status", s: (*string)(&r.Status), always: true},
		{key: "val", n: &r.Val},
		{key: "gathered", n: &r.Gathered},
		{key: "need", n: &r.Need},
		{key: "inflight", n: &r.Inflight},
		{key: "max", n: &r.Max},
		{key: "incarnation", n: &r.Incarnation},
		{key: "err", s: &r.Err},
	}
}

// appendRequest appends r as one protocol line.
func appendRequest(b []byte, r *Request) []byte {
	fs := r.fields()
	return appendObject(b, fs[:])
}

// appendResponse appends r as one protocol line.
func appendResponse(b []byte, r *Response) []byte {
	fs := r.fields()
	return appendObject(b, fs[:])
}

// parseRequest decodes one line into r, as json.Unmarshal would into a
// zero Request.
func parseRequest(line []byte, r *Request) error {
	*r = Request{}
	if fs := r.fields(); scanObject(line, fs[:]) {
		return nil
	}
	var v Request // r itself must not escape into the slow path
	err := json.Unmarshal(line, &v)
	*r = v
	return err
}

// parseResponse decodes one line into r, as json.Unmarshal would into a
// zero Response.
func parseResponse(line []byte, r *Response) error {
	*r = Response{}
	if fs := r.fields(); scanObject(line, fs[:]) {
		return nil
	}
	var v Response
	err := json.Unmarshal(line, &v)
	*r = v
	return err
}

// appendObject appends the bytes json.Marshal writes for the struct fs
// lists, and a newline.
func appendObject(b []byte, fs []field) []byte {
	b = append(b, '{')
	open := len(b)
	for i := range fs {
		f := &fs[i]
		if f.n != nil && *f.n == 0 || f.s != nil && *f.s == "" && !f.always {
			continue
		}
		if len(b) > open {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, f.key...)
		b = append(b, '"', ':')
		if f.n != nil {
			b = strconv.AppendInt(b, int64(*f.n), 10)
		} else {
			b = appendString(b, *f.s)
		}
	}
	return append(b, '}', '\n')
}

func appendString(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if c := v[i]; !plain(c) || c == '<' || c == '>' || c == '&' {
			// Escapes, HTML-sensitive bytes and non-ASCII are
			// encoding/json's to write; it cannot fail on a string.
			q, _ := json.Marshal(v)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, v...)
	return append(b, '"')
}

// plain reports whether c stands for itself inside a JSON string.
func plain(c byte) bool { return 0x20 <= c && c <= 0x7e && c != '"' && c != '\\' }

// scanObject walks b as `{"key":value,...}` of the scanned subset, storing
// each value where fs points for its key. It reports false — having
// possibly stored some values — the moment b is anything else: whitespace,
// an unknown or differently-cased key, an escape, a value of the other
// kind, a fraction or exponent, a leading zero, bytes after the brace.
func scanObject(b []byte, fs []field) bool {
	if len(b) < 2 || b[0] != '{' {
		return false
	}
	if b[1] == '}' {
		return len(b) == 2
	}
	for i := 1; ; i++ {
		key, j, ok := scanString(b, i)
		if !ok || j >= len(b) || b[j] != ':' {
			return false
		}
		var f *field
		for k := range fs {
			if fs[k].key == string(key) {
				f = &fs[k]
				break
			}
		}
		if f == nil {
			return false
		}
		if f.n != nil {
			*f.n, i, ok = scanInt(b, j+1)
		} else {
			var v []byte
			if v, i, ok = scanString(b, j+1); ok {
				*f.s = string(v)
			}
		}
		if !ok || i >= len(b) || b[i] != ',' {
			return ok && i+1 == len(b) && b[i] == '}'
		}
	}
}

// scanString reads a quoted run of plain bytes at b[i:] and returns it
// with the index after the closing quote.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		if b[j] == '"' {
			return b[i+1 : j], j + 1, true
		}
		if !plain(b[j]) {
			break
		}
	}
	return nil, 0, false
}

// scanInt reads an integer literal at b[i:] — no leading zero, no "-0",
// at most 18 digits so it cannot overflow — and returns it with the index
// after its last digit.
func scanInt(b []byte, i int) (int, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	j, v := i, int64(0)
	for ; j < len(b) && '0' <= b[j] && b[j] <= '9'; j++ {
		v = v*10 + int64(b[j]-'0')
	}
	if j == i || j-i > 18 || b[i] == '0' && (neg || j-i > 1) {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return int(v), j, int64(int(v)) == v
}
