// Package netsub is the real-network substrate: the same node-facing
// surface as the virtual-clock msgnet scheduler (msgnet.Substrate),
// implemented with length-prefixed, checksummed frames over real net.Conn
// between OS processes — loopback TCP in tests and benchmarks, separate
// processes under `rrfdsim -substrate tcp`.
//
// Where msgnet plays the asynchrony adversary with a Chooser, here the
// environment is the adversary: real delay, loss (through the socket
// chaos shim), peer slowness and process death. The peer-pool discipline
// keeps every resource bounded and every failure structured:
//
//   - one outbound connection per peer carries this node's sends; one
//     accepted inbound connection per peer carries its receives, so
//     redial logic is strictly an outbound concern;
//   - per-peer bounded send queues are the in-flight cap: when a queue
//     is full the send is shed with a *BackpressureError, never buffered
//     without bound — on a network a shed is a lost message, and the
//     round watchdog above degrades it into a D(i,r) suspicion;
//   - broken connections are redialed with capped, seeded-jitter
//     exponential backoff (internal/backoff), and heartbeats bound how
//     long a dead connection can linger: an inbound conn silent for
//     several heartbeat intervals is torn down;
//   - an outbound lane is connected or redialing, never given up on: a
//     peer that is down or never reads costs its bounded queue, one
//     blocked write per WriteTimeout and at most one dial per capped
//     redial step, and a restarted peer's hello wakes the lane at once.
//
// The substrate clock is milliseconds since node start; RecvTimeout
// deadlines are absolute ticks on it, exactly as msgnet deadlines are
// absolute steps. RunRounds runs msgnet.RunSubstrateRounds — the one
// round loop, shared with the virtual substrates — with a wall-clock
// watchdog, so stalls degrade into suspicions identically.
package netsub

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/obs"
	"repro/internal/obs/hist"
)

// recvQueue bounds the received-envelope queue shared by all inbound
// connections; when full, inbound readers block, which backpressures the
// kernel buffers and ultimately the senders.
const recvQueue = 256

// redial is the reconnect backoff ladder, in units of Config.RedialUnit.
var redial = backoff.Policy{Initial: 1, Cap: 64, Jitter: 0.2}

// Config shapes one node of the mesh. Me, N and Addrs are required;
// every other field has a usable default.
type Config struct {
	// Me is this process's identity; N the mesh size.
	Me core.PID
	N  int

	// Addrs maps each pid to its listen address ("host:port").
	Addrs []string

	// Incarnation tags this node's hello frames; 1 if unset. A restarted
	// process announces incarnation 2+, and receivers replace the old
	// inbound connection with the new one (newest wins).
	Incarnation int

	// Listener, when non-nil, is the pre-bound listener to accept on
	// (the multi-process harness passes an inherited socket); nil means
	// listen on Addrs[Me].
	Listener net.Listener

	// dial, when non-nil, replaces the default TCP dialer — the hook the
	// tests use to make a peer unreachable or slow.
	dial func(addr string) (net.Conn, error)

	// SendQueue is the per-peer in-flight cap: the bounded frame queue
	// between Send and the peer's writer. A full queue sheds with a
	// *BackpressureError. 0 means 64.
	SendQueue int

	// HeartbeatEvery is the outbound heartbeat cadence; an inbound
	// connection silent for 4 of these intervals is declared dead. 0
	// means 500ms; negative disables heartbeats and the silence bound.
	HeartbeatEvery time.Duration

	// WriteTimeout bounds one frame write; a blocked write past it tears
	// the connection down for redial. 0 means 2s.
	WriteTimeout time.Duration

	// DialTimeout bounds one dial and the inbound hello wait. 0 means 2s.
	DialTimeout time.Duration

	// RedialUnit scales the reconnect backoff ladder (redial); 0 means
	// 25ms — 25ms doubling to 1.6s with ±20% seeded jitter.
	RedialUnit time.Duration

	// Seed derives each peer's jitter stream; 0 means 1.
	Seed int64

	// Observer, when non-nil, receives "netsub.*" events: conn_open,
	// conn_close, reconnect, dial_fail, hello, backpressure,
	// frame_error. Substrate events use round -1.
	Observer obs.Observer

	// Hist, when non-nil, receives the per-peer queue-depth
	// ("netsub_queue_depth") and heartbeat round-trip
	// ("netsub_rtt_ns") distributions.
	Hist *hist.Registry
}

func (c *Config) fill() error {
	if c.N <= 0 {
		return fmt.Errorf("netsub: invalid mesh size %d", c.N)
	}
	if c.Me < 0 || int(c.Me) >= c.N {
		return fmt.Errorf("netsub: pid %d outside mesh of %d", c.Me, c.N)
	}
	if len(c.Addrs) != c.N {
		return fmt.Errorf("netsub: %d addrs for %d processes", len(c.Addrs), c.N)
	}
	if c.Incarnation <= 0 {
		c.Incarnation = 1
	}
	if c.SendQueue <= 0 {
		c.SendQueue = 64
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 2 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RedialUnit <= 0 {
		c.RedialUnit = 25 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.dial == nil {
		timeout := c.DialTimeout
		c.dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return nil
}

// Stats counts one node's transport work. All fields are cumulative.
type Stats struct {
	// FramesSent counts data frames handed to peer writers and written;
	// FramesReceived counts data frames delivered to the recv queue.
	FramesSent, FramesReceived int64

	// Sheds counts sends dropped by backpressure.
	Sheds int64

	// Dials, DialFailures and Reconnects count outbound connection work;
	// a reconnect is a successful dial after an established connection
	// broke.
	Dials, DialFailures, Reconnects int64

	// HellosAccepted counts inbound connections that completed the
	// handshake.
	HellosAccepted int64
}

// Node is one process's endpoint in the mesh. It satisfies
// msgnet.Substrate, so protocol bodies written against the interface run
// unchanged on the virtual scheduler and on real sockets.
type Node struct {
	cfg   Config
	me    core.PID
	n     int
	start time.Time
	ln    net.Listener

	recvQ chan msgnet.Envelope
	peers []*peer // indexed by pid; nil at Me
	done  chan struct{}
	wg    sync.WaitGroup
	once  sync.Once

	inMu    sync.Mutex
	inbound map[core.PID]net.Conn
	seenInc []int // highest incarnation each pid has announced; 0 = none yet

	hRTT, hQueue *hist.Histogram

	framesSent, framesRecv, sheds        atomic.Int64
	dials, dialFails, reconnects, hellos atomic.Int64
}

var _ msgnet.Substrate = (*Node)(nil)

// Start brings a node up: it binds (or adopts) the listener and begins
// dialing every peer. Peers that are not up yet are retried with backoff;
// Start itself never waits for them.
func Start(cfg Config) (*Node, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Me])
		if err != nil {
			return nil, fmt.Errorf("netsub: listen %s: %w", cfg.Addrs[cfg.Me], err)
		}
	}
	nd := &Node{
		cfg:     cfg,
		me:      cfg.Me,
		n:       cfg.N,
		start:   time.Now(),
		ln:      ln,
		recvQ:   make(chan msgnet.Envelope, recvQueue),
		peers:   make([]*peer, cfg.N),
		done:    make(chan struct{}),
		inbound: make(map[core.PID]net.Conn),
		seenInc: make([]int, cfg.N),
	}
	if cfg.Hist != nil {
		nd.hRTT = cfg.Hist.Get("netsub_rtt_ns")
		nd.hQueue = cfg.Hist.Get("netsub_queue_depth")
	}
	nd.wg.Add(1)
	go nd.acceptLoop()
	for i := 0; i < cfg.N; i++ {
		if core.PID(i) == cfg.Me {
			continue
		}
		p := newPeer(nd, core.PID(i), cfg.Addrs[i])
		nd.peers[i] = p
		nd.wg.Add(1)
		go p.run()
	}
	return nd, nil
}

// Addr returns the listener's bound address (useful with ":0" configs).
func (nd *Node) Addr() string { return nd.ln.Addr().String() }

// PID implements msgnet.Substrate.
func (nd *Node) PID() core.PID { return nd.me }

// Size implements msgnet.Substrate.
func (nd *Node) Size() int { return nd.n }

// Clock implements msgnet.Substrate: milliseconds since node start.
func (nd *Node) Clock() int { return int(time.Since(nd.start) / time.Millisecond) }

// nanos is the histogram clock.
func (nd *Node) nanos() int64 { return time.Since(nd.start).Nanoseconds() }

// Stats returns a snapshot of the node's transport counters.
func (nd *Node) Stats() Stats {
	return Stats{
		FramesSent:     nd.framesSent.Load(),
		FramesReceived: nd.framesRecv.Load(),
		Sheds:          nd.sheds.Load(),
		Dials:          nd.dials.Load(),
		DialFailures:   nd.dialFails.Load(),
		Reconnects:     nd.reconnects.Load(),
		HellosAccepted: nd.hellos.Load(),
	}
}

// Send implements msgnet.Substrate: it frames the payload and hands it
// to the peer's bounded queue. A full queue sheds with a
// *BackpressureError. A shed message is a lost message, not a broken
// node — callers at the round layer treat it like any other loss the
// watchdog will surface.
func (nd *Node) Send(to core.PID, payload core.Value) error {
	if to < 0 || int(to) >= nd.n {
		return fmt.Errorf("netsub: send to invalid process %d", to)
	}
	select {
	case <-nd.done:
		return ErrClosed
	default:
	}
	if to == nd.me {
		env := msgnet.Envelope{From: nd.me, To: nd.me, Payload: payload}
		select {
		case nd.recvQ <- env:
			nd.framesSent.Add(1)
			nd.framesRecv.Add(1)
			return nil
		case <-nd.done:
			return ErrClosed
		default:
			nd.sheds.Add(1)
			return &BackpressureError{To: to, Cap: cap(nd.recvQ)}
		}
	}
	body, err := AppendValue(nil, payload)
	if err != nil {
		return err
	}
	buf, err := AppendFrame(make([]byte, 0, headerSize+len(body)+trailerSize), FrameData, body)
	if err != nil {
		return err
	}
	return nd.peers[to].send(buf)
}

// Broadcast implements msgnet.Substrate: it sends payload to every
// process including the sender. Backpressure sheds do not abort the
// broadcast — on a real network a partial broadcast is the normal failure
// mode, and the missing receivers surface as suspicions — but closed-node
// and encoding errors do.
func (nd *Node) Broadcast(payload core.Value) error {
	for i := 0; i < nd.n; i++ {
		if err := nd.Send(core.PID(i), payload); err != nil && !shed(err) {
			return err
		}
	}
	return nil
}

// Recv implements msgnet.Substrate.
func (nd *Node) Recv() (msgnet.Envelope, error) {
	select {
	case env := <-nd.recvQ:
		return env, nil
	default:
	}
	select {
	case env := <-nd.recvQ:
		return env, nil
	case <-nd.done:
		return msgnet.Envelope{}, ErrClosed
	}
}

// RecvTimeout implements msgnet.Substrate: the deadline is an absolute
// tick of the node's millisecond clock. A delivery always wins over an
// expired deadline.
func (nd *Node) RecvTimeout(deadline int) (msgnet.Envelope, bool, error) {
	select {
	case env := <-nd.recvQ:
		return env, true, nil
	default:
	}
	wait := nd.start.Add(time.Duration(deadline) * time.Millisecond)
	timer := time.NewTimer(time.Until(wait))
	defer timer.Stop()
	select {
	case env := <-nd.recvQ:
		return env, true, nil
	case <-timer.C:
		return msgnet.Envelope{}, false, nil
	case <-nd.done:
		return msgnet.Envelope{}, false, ErrClosed
	}
}

// Close tears the node down: the listener, every connection and every
// goroutine. It is idempotent and safe to call concurrently with any
// operation; in-flight operations return ErrClosed.
func (nd *Node) Close() error {
	nd.once.Do(func() {
		close(nd.done)
		nd.ln.Close()
		for _, p := range nd.peers {
			if p != nil {
				p.closeConn()
			}
		}
		nd.inMu.Lock()
		for _, c := range nd.inbound {
			c.Close()
		}
		nd.inMu.Unlock()
	})
	nd.wg.Wait()
	return nil
}

// closed reports whether Close has begun.
func (nd *Node) closed() bool {
	select {
	case <-nd.done:
		return true
	default:
		return false
	}
}

// acceptLoop owns the listener.
func (nd *Node) acceptLoop() {
	defer nd.wg.Done()
	for {
		c, err := nd.ln.Accept()
		if err != nil {
			if nd.closed() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		nd.wg.Add(1)
		go nd.serveInbound(c)
	}
}

// serveInbound handshakes and then pumps one peer's frames into the recv
// queue. The hello must arrive within DialTimeout; after that, a
// connection silent for 4 heartbeat intervals is declared dead.
func (nd *Node) serveInbound(c net.Conn) {
	defer nd.wg.Done()
	defer c.Close()
	br := bufio.NewReaderSize(c, 32<<10)
	var scratch []byte

	c.SetReadDeadline(time.Now().Add(nd.cfg.DialTimeout))
	f, err := ReadFrame(br, &scratch)
	if err != nil || f.Kind != FrameHello {
		nd.event("netsub.frame_error", map[string]any{"reason": "bad handshake"})
		return
	}
	h, err := decodeHello(f.Payload)
	if err != nil || int(h.pid) >= nd.n || h.pid < 0 || h.pid == nd.me || h.n != nd.n {
		nd.event("netsub.frame_error", map[string]any{"reason": "bad hello"})
		return
	}
	nd.event("netsub.hello", map[string]any{"peer": int(h.pid), "incarnation": h.incarnation})
	nd.event("netsub.conn_open", map[string]any{"peer": int(h.pid), "dir": "in"})

	// Newest wins: a reconnecting or restarted peer replaces its old
	// inbound connection, which is closed out from under its reader.
	nd.inMu.Lock()
	if old := nd.inbound[h.pid]; old != nil {
		old.Close()
	}
	nd.inbound[h.pid] = c
	prevInc := nd.seenInc[h.pid]
	nd.seenInc[h.pid] = max(prevInc, h.incarnation)
	nd.inMu.Unlock()
	// A newer incarnation means the process our outbound lane was
	// talking to is gone: the kernel would still accept one write on that
	// connection and lose it. At first contact nothing older exists.
	if prevInc != 0 && h.incarnation > prevInc {
		nd.peers[h.pid].noteRestart()
	}
	nd.hellos.Add(1) // last: whoever reads the count knows the lane was told
	defer func() {
		nd.inMu.Lock()
		if nd.inbound[h.pid] == c {
			delete(nd.inbound, h.pid)
		}
		nd.inMu.Unlock()
	}()

	silence := 4 * nd.cfg.HeartbeatEvery
	for {
		if silence > 0 {
			c.SetReadDeadline(time.Now().Add(silence))
		} else {
			c.SetReadDeadline(time.Time{})
		}
		f, err := ReadFrame(br, &scratch)
		if err != nil {
			if !nd.closed() {
				nd.event("netsub.conn_close", map[string]any{"peer": int(h.pid), "dir": "in", "reason": closeReason(err)})
			}
			return
		}
		switch f.Kind {
		case FrameData:
			v, _, err := DecodeValue(f.Payload)
			if err != nil {
				nd.event("netsub.frame_error", map[string]any{"reason": err.Error()})
				return
			}
			select {
			case nd.recvQ <- msgnet.Envelope{From: h.pid, To: nd.me, Payload: v}:
				nd.framesRecv.Add(1)
			case <-nd.done:
				return
			}
		case FrameHeartbeat:
			// Echo on the same connection so the sender can measure RTT
			// without crossing into the outbound queue.
			ack, _ := AppendFrame(nil, FrameHeartbeatAck, f.Payload)
			c.SetWriteDeadline(time.Now().Add(nd.cfg.WriteTimeout))
			if _, err := c.Write(ack); err != nil {
				return
			}
		default:
			// Duplicate hellos and stray acks are ignored.
		}
	}
}

// event emits one substrate observer event (round -1, this node's pid).
func (nd *Node) event(kind string, fields map[string]any) {
	if nd.cfg.Observer != nil {
		nd.cfg.Observer.Event(kind, -1, int(nd.me), fields)
	}
}

// closeReason compresses an error to a stable reason tag for events.
func closeReason(err error) string {
	var ne net.Error
	switch {
	case errors.Is(err, net.ErrClosed):
		return "closed"
	case errors.As(err, &ne) && ne.Timeout():
		return "silence"
	default:
		var corrupt *CorruptFrameError
		var oversize *OversizeFrameError
		if errors.As(err, &corrupt) || errors.As(err, &oversize) {
			return "corrupt"
		}
		return "eof"
	}
}

// encodeHeartbeat builds a heartbeat frame carrying the node's
// nanosecond clock.
func (nd *Node) encodeHeartbeat() []byte {
	body := binary.AppendUvarint(nil, uint64(nd.nanos()))
	buf, _ := AppendFrame(nil, FrameHeartbeat, body)
	return buf
}
