// Client-side retry discipline: a Client submits proposals over the
// newline-JSON protocol, retrying overloads, abstains, and transport
// failures with capped-exponential seeded-jitter backoff
// (internal/backoff) — and always under the same request ID, so a retry
// can never decide a second time: the server's decision table answers
// every duplicate.
package serve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/backoff"
)

// ClientConfig shapes one service client.
type ClientConfig struct {
	// Addr is the server's client-facing address.
	Addr string

	// Timeout bounds one attempt end to end (dial, write, read); it is
	// also forwarded as the request's server-side deadline. 0 means 2s.
	Timeout time.Duration

	// MaxAttempts bounds submit retries (first try included). 0 means 8.
	MaxAttempts int

	// RetryUnit is the first backoff interval between attempts; it
	// doubles to 64×RetryUnit with ±20% seeded jitter. 0 means 5ms.
	RetryUnit time.Duration

	// Seed derives the jitter stream; equal seeds retry on equal
	// schedules.
	Seed int64
}

func (c *ClientConfig) fill() {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.RetryUnit <= 0 {
		c.RetryUnit = 5 * time.Millisecond
	}
}

// Client is a single-goroutine service client: one connection, one
// request in flight at a time. Not safe for concurrent use; drive one
// Client per goroutine.
type Client struct {
	cfg  ClientConfig
	conn net.Conn
	in   *bufio.Scanner
	out  []byte // the request line, reused
	seq  *backoff.Seq

	// Retries counts backoff sleeps taken; Attempts counts wire
	// attempts. Exposed for load-generator accounting.
	Retries  int64
	Attempts int64
}

// NewClient returns a client for addr. No connection is made until the
// first request, and a broken connection redials on the next attempt —
// a dead server costs retries, never a construction error.
func NewClient(cfg ClientConfig) *Client {
	cfg.fill()
	return &Client{cfg: cfg, seq: backoff.Policy{Initial: 1, Cap: 64, Jitter: 0.2}.Seeded(cfg.Seed)}
}

// Submit proposes val for instance inst under request ID req, retrying
// until the instance decides or attempts run out.
//
// The result is (response, nil) whenever a structured answer was
// received — callers switch on Status: StatusDecided is final;
// StatusAbstain or StatusOverload mean every attempt degraded. The error
// is non-nil only when no attempt got a response at all
// (*UnreachableError).
func (c *Client) Submit(inst, req string, val int) (Response, error) {
	return c.retry(Request{
		Op: "submit", Inst: inst, Req: req, Val: val,
		TimeoutMS: int(c.cfg.Timeout / time.Millisecond),
	})
}

// Query reads the decision for inst, if the server has one
// (StatusDecided or StatusUnknown). Transport failures are retried like
// Submit; unknown is a final answer, not a retryable state.
func (c *Client) Query(inst string) (Response, error) {
	return c.retry(Request{Op: "query", Inst: inst})
}

func (c *Client) retry(req Request) (Response, error) {
	var (
		last    Response
		lastErr error
		gotAny  bool
	)
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.Retries++
			time.Sleep(c.seq.NextDuration(c.cfg.RetryUnit))
		}
		c.Attempts++
		resp, err := c.roundTrip(req)
		if err != nil {
			lastErr = err
			c.dropConn()
			continue
		}
		gotAny, last = true, resp
		switch resp.Status {
		case StatusDecided, StatusUnknown:
			c.seq.Reset()
			return resp, nil
		case StatusError:
			return resp, fmt.Errorf("serve: server rejected request: %s", resp.Err)
		}
		// StatusAbstain and StatusOverload: back off and retry with the
		// same request ID.
	}
	if gotAny {
		return last, nil
	}
	return Response{}, &UnreachableError{Addr: c.cfg.Addr, Attempts: c.cfg.MaxAttempts, Last: lastErr}
}

// roundTrip runs one attempt: ensure a connection, send the request,
// read its response. Any failure — a response longer than maxLine
// included — invalidates the connection, so request and response streams
// can never skew.
func (c *Client) roundTrip(req Request) (Response, error) {
	deadline := time.Now().Add(c.cfg.Timeout + 500*time.Millisecond)
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.Timeout)
		if err != nil {
			return Response{}, err
		}
		c.conn = conn
		c.in = newLineScanner(conn)
	}
	c.conn.SetDeadline(deadline)
	c.out = appendRequest(c.out[:0], &req)
	if _, err := c.conn.Write(c.out); err != nil {
		return Response{}, err
	}
	if !c.in.Scan() {
		if err := c.in.Err(); err != nil {
			return Response{}, err
		}
		return Response{}, io.EOF
	}
	var resp Response
	if err := parseResponse(c.in.Bytes(), &resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

func (c *Client) dropConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// Close releases the connection.
func (c *Client) Close() error {
	c.dropConn()
	return nil
}
