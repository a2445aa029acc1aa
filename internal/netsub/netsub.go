// Package netsub is the real-network substrate: the same node-facing
// surface as the virtual-clock msgnet scheduler (msgnet.Substrate),
// implemented with length-prefixed, checksummed frames over real net.Conn
// between OS processes — loopback TCP in tests and benchmarks, separate
// processes under `rrfdsim tcp`.
//
// Where msgnet plays the asynchrony adversary with a Chooser, here the
// environment is the adversary: real delay, loss (through the socket
// chaos shim), peer slowness and process death. The peer-pool discipline
// keeps every resource bounded and every failure structured:
//
//   - each connection is one directed link: the outbound one per peer
//     carries this node's sends, heartbeats and heartbeat acks and is
//     only written; the accepted inbound one per peer carries its
//     receives and is only read, so redial logic is strictly an outbound
//     concern;
//   - every write to a peer goes through its Lane: a sender whose lane is
//     idle writes its frame itself, without blocking, and the peer's
//     writer goroutine runs only for what such a write could not finish;
//     on the way in, the connection's reader hands each data frame to
//     Config.Deliver (by default the queue behind Recv);
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
//     blocked write per write timeout and at most one dial per capped
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

// redial is the reconnect backoff ladder, in units of redialUnit:
// 25ms doubling to 1.6s with ±20% seeded jitter.
var redial = backoff.Policy{Initial: 1, Cap: 64, Jitter: 0.2}

const (
	redialUnit = 25 * time.Millisecond
	// dialTimeout bounds one dial and the inbound hello wait.
	dialTimeout = 2 * time.Second
)

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
	// of the peer's lane, which holds what Send could not write itself. A
	// full queue sheds with a *BackpressureError. 0 means 64.
	SendQueue int

	// Deliver, when non-nil, receives every data frame a peer sends
	// exactly as framed — the bytes SendBytes was given; a Send's round
	// message in AppendValue's encoding — on the reader of the connection
	// it arrived on; a handler that blocks holds that connection back. A
	// mesh whose nodes set Deliver is sent bytes, and never by a node to
	// itself. The payload aliases the reader's buffer and is valid only
	// until the handler returns: nothing copies it, and a handler that
	// keeps any of it copies that part. nil means the receive queue
	// behind Recv and RecvTimeout, which decodes a copy.
	Deliver func(from core.PID, payload []byte)

	// HeartbeatEvery is the outbound heartbeat cadence; an inbound
	// connection silent for 4 of these intervals is declared dead. 0
	// means 500ms; negative disables heartbeats and the silence bound.
	HeartbeatEvery time.Duration

	// writeTimeout bounds one frame write; a blocked write past it tears
	// the connection down for redial. 0 means 2s; the tests shorten it.
	writeTimeout time.Duration

	// Seed derives each peer's jitter stream; 0 means 1.
	Seed int64

	// Observer, when non-nil, receives "netsub.*" events: conn_open,
	// conn_close, reconnect, dial_fail, hello, backpressure,
	// frame_error. Substrate events use round -1.
	Observer obs.Observer

	// Hist, when non-nil, receives the per-peer queue-depth
	// ("netsub_queue_depth") and heartbeat round-trip
	// ("netsub_rtt_ns") distributions. A round trip spans this node's
	// lane to the peer, the peer's reader, the peer's lane back and this
	// node's reader: the path a peer's answer takes, minus its event
	// loop. An ack can queue behind data frames or wait out a redial.
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
	if c.writeTimeout <= 0 {
		c.writeTimeout = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.dial == nil {
		c.dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dialTimeout)
		}
	}
	return nil
}

// Stats counts one node's transport work. All fields are cumulative.
type Stats struct {
	// FramesSent counts data frames accepted: written inline or queued;
	// a shed frame is not counted. FramesReceived counts data frames
	// handed to Deliver.
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

	recvQ   chan msgnet.Envelope
	deliver func(core.PID, []byte) error // Config.Deliver, or enqueue
	peers   []*peer                      // indexed by pid; nil at Me
	done    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once

	inMu    sync.Mutex
	inbound []net.Conn // each pid's registered inbound connection, by pid; nil = none
	seenInc []int      // highest incarnation each pid has announced; 0 = none yet

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
		inbound: make([]net.Conn, cfg.N),
		seenInc: make([]int, cfg.N),
		hRTT:    cfg.Hist.Get("netsub_rtt_ns"),
		hQueue:  cfg.Hist.Get("netsub_queue_depth"),
	}
	nd.deliver = nd.enqueue
	if d := cfg.Deliver; d != nil {
		nd.deliver = func(from core.PID, payload []byte) error {
			d(from, payload)
			return nil
		}
	}
	for i := 0; i < cfg.N; i++ {
		if core.PID(i) == cfg.Me {
			continue
		}
		p := newPeer(nd, core.PID(i), cfg.Addrs[i])
		nd.peers[i] = p
		nd.wg.Add(1)
		go p.run()
	}
	// Accept only once every peer exists: an inbound reader acks
	// heartbeats on the sender's lane.
	nd.wg.Add(1)
	go nd.acceptLoop()
	return nd, nil
}

// Addr returns the listener's bound address (useful with ":0" configs).
func (nd *Node) Addr() string { return nd.ln.Addr().String() }

// PID implements msgnet.Substrate.
func (nd *Node) PID() core.PID { return nd.me }

// Size implements msgnet.Substrate.
func (nd *Node) Size() int { return nd.n }

// Incarnation implements msgnet.Substrate: the incarnation its hellos announce.
func (nd *Node) Incarnation() int { return nd.cfg.Incarnation }

// Clock implements msgnet.Substrate: milliseconds since node start.
func (nd *Node) Clock() int { return int(time.Since(nd.start) / time.Millisecond) }

// nanos is the heartbeat clock: nanoseconds since node start.
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

// Send implements msgnet.Substrate: it frames the payload, one round
// message (see AppendValue), into the peer's lane, which writes it at once
// when the lane is idle and queues it for the peer's writer otherwise; a
// send to self queues it behind Recv. A full queue sheds with a
// *BackpressureError. A shed message is a lost message, not a broken
// node — callers at the round layer treat it like any other loss the
// watchdog will surface.
func (nd *Node) Send(to core.PID, payload core.Value) error {
	if err := nd.check(to); err != nil {
		return err
	}
	if to == nd.me {
		return nd.sendSelf(payload)
	}
	p := nd.peers[to]
	b, err := appendValueFrame(p.lane.Buf(), payload)
	if err != nil {
		p.lane.unlock()
		return err
	}
	return p.push(b)
}

// SendBytes sends b as one data frame's payload, framed straight into the
// peer's lane, which hands it to the peer's Config.Deliver as it is. It
// is for a mesh whose nodes set Deliver: the receive queue behind Recv
// decodes a payload as a Send's round message, and tears down the
// connection of one that is not. A node never sends itself bytes: to is
// a peer. b is copied before SendBytes returns, so the caller may reuse
// it.
func (nd *Node) SendBytes(to core.PID, b []byte) error {
	if err := nd.check(to); err != nil {
		return err
	}
	if to == nd.me {
		return fmt.Errorf("netsub: p%d sends bytes to itself", to)
	}
	p := nd.peers[to]
	f, err := AppendFrame(p.lane.Buf(), FrameData, b)
	if err != nil {
		p.lane.unlock()
		return err
	}
	return p.push(f)
}

// check vets a send's destination and the node's state.
func (nd *Node) check(to core.PID) error {
	if to < 0 || int(to) >= nd.n {
		return fmt.Errorf("netsub: send to invalid process %d", to)
	}
	select {
	case <-nd.done:
		return ErrClosed
	default:
		return nil
	}
}

// sendSelf queues payload behind Recv, as a frame from this node itself
// would arrive, without a connection.
func (nd *Node) sendSelf(payload core.Value) error {
	if err := vet(payload); err != nil {
		return err
	}
	select {
	case nd.recvQ <- msgnet.Envelope{From: nd.me, To: nd.me, Payload: payload}:
		nd.framesSent.Add(1)
		nd.framesRecv.Add(1)
		return nil
	case <-nd.done:
		return ErrClosed
	default:
		nd.sheds.Add(1)
		return &BackpressureError{To: nd.me, Cap: cap(nd.recvQ)}
	}
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

// enqueue is the default Deliver: it decodes a copy of the payload into
// the receive queue, which a full queue backpressures onto the
// connection's reader. A payload that is no value tears the connection
// down.
func (nd *Node) enqueue(from core.PID, payload []byte) error {
	v, _, err := DecodeValue(payload)
	if err != nil {
		return err
	}
	select {
	case nd.recvQ <- msgnet.Envelope{From: from, To: nd.me, Payload: v}:
	case <-nd.done:
	}
	return nil
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
			if c != nil {
				c.Close()
			}
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

// serveInbound handshakes and then hands one peer's data frames to
// Deliver. It only reads: a heartbeat's ack goes back on this node's own
// lane to the peer. The hello must arrive within dialTimeout; after
// that, a connection silent for 4 heartbeat intervals is declared dead.
func (nd *Node) serveInbound(c net.Conn) {
	defer nd.wg.Done()
	defer c.Close()
	br := bufio.NewReaderSize(c, 32<<10)
	var scratch []byte

	c.SetReadDeadline(time.Now().Add(dialTimeout))
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
	// inbound connection, which is closed out from under its reader. Once
	// Close has swept the table nothing may join it: heartbeats would keep
	// the connection, and Close's wait, alive for ever.
	nd.inMu.Lock()
	if nd.closed() {
		nd.inMu.Unlock()
		return
	}
	if old := nd.inbound[h.pid]; old != nil {
		old.Close()
	}
	nd.inbound[h.pid] = c
	// A newer incarnation means the process our outbound lane was
	// talking to is gone: the kernel would still accept one write on that
	// connection and lose it. At first contact nothing older exists. The
	// lane is told before the lock goes, so whoever Hears the peer sends
	// to the new process.
	if prevInc := nd.seenInc[h.pid]; prevInc != 0 && h.incarnation > prevInc {
		nd.peers[h.pid].noteRestart()
	}
	nd.seenInc[h.pid] = max(nd.seenInc[h.pid], h.incarnation)
	nd.inMu.Unlock()
	nd.hellos.Add(1) // last: whoever reads the count knows the lane was told
	defer func() {
		nd.inMu.Lock()
		if nd.inbound[h.pid] == c {
			nd.inbound[h.pid] = nil
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
			if err := nd.deliver(h.pid, f.Payload); err != nil {
				nd.event("netsub.frame_error", map[string]any{"reason": err.Error()})
				return
			}
			nd.framesRecv.Add(1)
		case FrameHeartbeat:
			// Like a heartbeat, the ack never blocks, sheds on a full
			// queue and is no frame sent.
			lane := nd.peers[h.pid].lane
			ack, _ := AppendFrame(lane.Buf(), FrameHeartbeatAck, f.Payload)
			lane.Push(ack)
		case FrameHeartbeatAck:
			if sent, n := binary.Uvarint(f.Payload); n > 0 {
				nd.hRTT.Since(nd.start.Add(time.Duration(sent)))
			}
		default:
			// Duplicate hellos are ignored.
		}
	}
}

// Hears reports whether p's inbound connection is registered: p has said
// hello, and that connection has not broken or gone silent for 4
// heartbeat intervals since. It is the connection p's frames arrive on.
func (nd *Node) Hears(p core.PID) bool {
	nd.inMu.Lock()
	defer nd.inMu.Unlock()
	return nd.inbound[p] != nil
}

// event emits one substrate observer event (round -1, this node's pid).
func (nd *Node) event(kind string, fields map[string]any) {
	if nd.cfg.Observer != nil {
		nd.cfg.Observer.Observe(obs.Event{Kind: kind, R: -1, P: int(nd.me), Fields: fields})
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

// appendHeartbeat appends a heartbeat frame carrying the node's
// nanosecond clock.
func (nd *Node) appendHeartbeat(dst []byte) []byte {
	off := len(dst)
	dst = binary.AppendUvarint(append(dst, make([]byte, headerSize)...), uint64(nd.nanos()))
	return endFrame(dst, off, FrameHeartbeat)
}
