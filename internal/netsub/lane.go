package netsub

import (
	"net"
	"sync"
	"syscall"
	"time"
)

// maxWriteBytes bounds how many queued bytes the writer gathers into one
// conn.Write: enough that a backlog of small frames costs one syscall,
// small enough that one write stays well inside the write deadline.
const maxWriteBytes = 64 << 10

// Lane is the write side of one connection, shared by every goroutine
// that writes to it: a bounded FIFO of whole frames (or lines), and a
// writer — the goroutine that owns the connection — that runs only when a
// write could not finish. While nothing is queued or in flight a sender
// writes its frame itself, with one non-blocking write through the
// connection's syscall.RawConn; whatever that write leaves joins the
// queue, ahead of any later frame. A connection with no RawConn (a
// net.Pipe, a wrapper) has no inline path: every frame goes through the
// writer. No one may write to the connection past its lane: a write that
// did could land in the middle of a half-written frame.
//
// A sender encodes into the lane's scratch (Buf, then Push), so a frame
// written inline costs no allocation; a queued one is copied.
type Lane struct {
	mu   sync.Mutex
	conn net.Conn        // the live connection; nil while there is none
	raw  syscall.RawConn // conn's, when it has one: the inline path
	max  int             // queue bound; Push sheds past it
	q    []queued        // the FIFO, q[head:]
	head int
	busy bool   // the writer has bytes in flight, outside mu
	wbuf []byte // the writer's gather buffer

	closed bool

	scratch []byte // Buf's
	// The inline write's operands, for writeRaw, which is bound once to
	// rawWrite so that a write allocates no closure.
	rawWrite func(fd uintptr) bool
	out      []byte
	wn       int
	werr     error

	wake chan struct{} // buffered 1: the queue became non-empty
	// restarted (buffered 1) tells a mesh lane's writer that the remote
	// process came back as a newer incarnation: whatever connection or
	// redial sleep the lane is in belongs to the dead one.
	restarted chan struct{}
}

// queued is one frame waiting for the writer: off of its bytes are on
// the current connection already.
type queued struct {
	b   []byte
	off int
}

// NewLane returns a lane over conn (nil: none live yet) that queues at
// most max frames.
func NewLane(conn net.Conn, max int) *Lane {
	l := &Lane{max: max, wake: make(chan struct{}, 1), restarted: make(chan struct{}, 1)}
	l.rawWrite = l.writeRaw
	if conn != nil {
		l.attach(conn)
	}
	return l
}

// attach makes conn the live connection. It answers a restart signalled
// before it: conn was dialled after the old connection was given up.
// Frames still queued go out on it, the one a previous connection cut
// short from its first byte.
func (l *Lane) attach(conn net.Conn) {
	raw := rawConnOf(conn)
	l.mu.Lock()
	select {
	case <-l.restarted:
	default:
	}
	l.conn, l.raw = conn, raw
	n := l.len()
	l.mu.Unlock()
	if n > 0 {
		l.kick()
	}
}

// detach leaves the lane with no live connection.
func (l *Lane) detach() {
	l.mu.Lock()
	l.unhook()
	l.mu.Unlock()
}

// restart detaches the lane and signals restarted, in one step: an
// attach comes wholly before it or wholly after.
func (l *Lane) restart() {
	l.mu.Lock()
	l.unhook()
	select {
	case l.restarted <- struct{}{}:
	default:
	}
	l.mu.Unlock()
}

// unhook drops the live connection: senders queue, and the frame at the
// head, if the writer is not writing it, will start again from its
// first byte.
func (l *Lane) unhook() {
	l.conn, l.raw = nil, nil
	if !l.busy && l.len() > 0 {
		l.q[l.head].off = 0
	}
}

// Close ends the lane: what is queued is dropped, and every later Push
// sheds.
func (l *Lane) Close() {
	l.mu.Lock()
	l.closed = true
	l.conn, l.raw = nil, nil
	clear(l.q)
	l.q, l.head = l.q[:0], 0
	l.mu.Unlock()
}

// Wake is ready once a frame has been queued for the writer.
func (l *Lane) Wake() <-chan struct{} { return l.wake }

// Buf locks the lane and returns its scratch, emptied. The caller appends
// exactly one whole frame (or line) and hands the result to Push, which
// unlocks.
func (l *Lane) Buf() []byte {
	l.mu.Lock()
	return l.scratch[:0]
}

// unlock releases a lane taken with Buf without sending anything.
func (l *Lane) unlock() { l.mu.Unlock() }

// Push sends b, which the caller built on Buf, and unlocks the lane. It
// reports how many frames wait for the writer once b is accepted (0: b
// was written whole, inline), or false when the queue already holds max
// frames or the lane is closed: b is shed. Push never blocks on the
// network.
func (l *Lane) Push(b []byte) (int, bool) {
	l.scratch = b
	if l.closed || l.len() >= l.max {
		l.mu.Unlock()
		return 0, false
	}
	off := 0
	if l.raw != nil && !l.busy && l.len() == 0 {
		l.out, l.wn, l.werr = b, 0, nil
		err := l.raw.Write(l.rawWrite)
		l.out = nil
		if err == nil && l.werr == nil {
			off = l.wn
		}
		if off == len(b) {
			l.mu.Unlock()
			return 0, true
		}
		// A failed write leaves off at 0: the writer meets the same
		// error and the frame goes whole on the next connection.
	}
	l.enqueue(queued{b: append([]byte(nil), b...), off: off})
	n := l.len()
	l.mu.Unlock()
	if n == 1 {
		l.kick()
	}
	return n, true
}

// Flush is the writer's part, and only the writer calls it: it writes
// the queue, oldest frame first and up to maxWriteBytes a write, each
// write within timeout, until the queue is empty or no connection is
// live. A write that fails returns its error; the frame it cut short stays
// queued whole.
func (l *Lane) Flush(timeout time.Duration) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.len() > 0 && l.conn != nil {
		conn := l.conn
		l.wbuf = l.wbuf[:0]
		for i := l.head; i < len(l.q) && len(l.wbuf) < maxWriteBytes; i++ {
			l.wbuf = append(l.wbuf, l.q[i].b[l.q[i].off:]...)
		}
		l.busy = true
		l.mu.Unlock()
		conn.SetWriteDeadline(time.Now().Add(timeout))
		n, err := conn.Write(l.wbuf)
		conn.SetWriteDeadline(time.Time{}) // the inline path takes no deadline
		l.mu.Lock()
		l.busy = false
		l.advance(n, err != nil || l.conn != conn)
		if err != nil {
			return err
		}
	}
	return nil
}

// advance retires the n bytes the writer wrote from the head of the
// queue. On a broken connection the frame it stopped inside starts over.
func (l *Lane) advance(n int, broken bool) {
	for l.len() > 0 {
		e := &l.q[l.head]
		if rest := len(e.b) - e.off; n < rest {
			e.off += n
			break
		} else {
			n -= rest
		}
		l.q[l.head] = queued{}
		if l.head++; l.head == len(l.q) {
			l.q, l.head = l.q[:0], 0
		}
	}
	if broken && l.len() > 0 {
		l.q[l.head].off = 0
	}
}

// len is the number of queued frames.
func (l *Lane) len() int { return len(l.q) - l.head }

// enqueue appends e, reusing the room popped frames left at the front.
func (l *Lane) enqueue(e queued) {
	if len(l.q) == cap(l.q) && l.head > 0 {
		n := copy(l.q, l.q[l.head:])
		clear(l.q[n:])
		l.q, l.head = l.q[:n], 0
	}
	l.q = append(l.q, e)
}

func (l *Lane) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}
