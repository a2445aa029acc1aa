package main

import (
	"bufio"
	"net"
	"time"
)

// The yardstick is a fixed piece of work that uses nothing of the
// repository — round trips of one request-sized line over a loopback
// TCP connection between two goroutines — run at every boundary between
// the timed slices of a run. Its time says how fast the host is at that
// moment, and every timing the benchmark reports is divided by it.
//
// The benchmark needs it because the host it is judged on has two
// speeds. The machine is a two-processor share of a big one, and for
// minutes at a time everything that leaves the registers — allocation,
// pointer chasing, the kernel's socket path, fsync — takes 1.4 to 1.7
// times as long as in the minutes before, with no steal time to show for
// it (README.md, "The host"). A run falls wholly inside one speed, so no
// statistic within a run removes it, and ten runs that straddle both
// spread by 30–50%. The yardstick slows by the same factor as the
// workloads, so timings divided by it repeat to a few percent at either
// speed. The raw figures and the factor are printed beside them.
const (
	// A sample is yardBlocks blocks of yardTrips round trips each, and
	// reads as its median block: one hiccup of the host inside a sample
	// (seen once: some 20 ms, which made a set-up look six times faster
	// than it was) must not pass for a slow host.
	yardBlocks, yardTrips = 8, 32

	// yardRef is the yardstick at the host's fast speed, so that a
	// corrected timing reads as a raw one does when the host is fast.
	yardRef = 8 * time.Microsecond
)

// yardLine is the size of a serve request line.
var yardLine = []byte(`{"op":"submit","inst":"f1-0-12345","req":"f1-0-12345","val":12345}` + "\n")

type yardstick struct {
	ln   net.Listener
	conn net.Conn
	rd   *bufio.Reader
	echo chan struct{} // closed when the echoing goroutine has ended

	last    float64   // the latest sample: ns per round trip
	factors []float64 // one per sample() call
	err     error     // the first failed round trip; execute reports it
}

func newYardstick() (*yardstick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	y := &yardstick{ln: ln, echo: make(chan struct{})}
	go func() {
		defer close(y.echo)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		rd := bufio.NewReader(c)
		for {
			line, err := rd.ReadSlice('\n')
			if err != nil {
				return
			}
			if _, err := c.Write(line); err != nil {
				return
			}
		}
	}()
	if y.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-y.echo
		return nil, err
	}
	y.rd = bufio.NewReader(y.conn)
	for i := 0; i < 4; i++ { // warm the connection; the last one is the first slice's "before"
		y.sample()
	}
	y.factors = nil
	return y, nil
}

// sample runs the yardstick once and returns the host's slowness over
// the slice that ended just now: the mean of this sample and the one
// before it, which bracket the slice, relative to yardRef. 1 is the
// fast host. A nil yardstick says 1.
func (y *yardstick) sample() float64 {
	if y == nil {
		return 1
	}
	var blocks [yardBlocks]float64
	for b := range blocks {
		t0 := time.Now()
		for i := 0; i < yardTrips && y.err == nil; i++ {
			if _, y.err = y.conn.Write(yardLine); y.err == nil {
				_, y.err = y.rd.ReadSlice('\n')
			}
		}
		blocks[b] = float64(time.Since(t0)) / yardTrips
	}
	if y.err != nil {
		return 1
	}
	now := median(blocks[:])
	f := (y.last + now) / 2 / float64(yardRef)
	y.last = now
	y.factors = append(y.factors, f)
	return f
}

func (y *yardstick) close() {
	if y == nil {
		return
	}
	y.conn.Close()
	y.ln.Close()
	<-y.echo
}
