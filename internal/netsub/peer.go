package netsub

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"repro/internal/core"
)

// maxWriteBytes bounds how many queued bytes the writer gathers into one
// conn.Write: enough that a backlog of small frames costs one syscall,
// small enough that one write stays well inside the write deadline.
const maxWriteBytes = 64 << 10

// peer is one outbound lane of the pool: a bounded queue of encoded
// frames and a writer goroutine that owns dialing and the connection. The
// lane is connected or redialing; a peer that is down or never reads
// costs its bounded queue, one write per WriteTimeout and one dial per
// redial step, and is heard again as soon as it is back.
type peer struct {
	nd   *Node
	to   core.PID
	addr string

	// q is the bounded in-flight queue; Send sheds when it is full.
	q chan []byte

	// restarted (buffered 1) tells the writer that the remote process
	// came back as a newer incarnation: whatever connection or redial
	// sleep the lane is in belongs to the dead one.
	restarted chan struct{}

	// wbuf holds the wn frames the writer has taken off q and not yet
	// written — writer-owned; it outlives a connection only when a
	// restart signal abandons that connection under it.
	wbuf []byte
	wn   int

	// connMu guards conn, the writer's current connection; closeConn uses
	// it to unblock the writer on node close.
	connMu sync.Mutex
	conn   net.Conn
}

func newPeer(nd *Node, to core.PID, addr string) *peer {
	return &peer{
		nd: nd, to: to, addr: addr,
		q:         make(chan []byte, nd.cfg.SendQueue),
		restarted: make(chan struct{}, 1),
	}
}

// noteRestart is called by the inbound side when the remote announced a
// newer incarnation than the last one seen. The lane cannot tell which
// incarnation its connection reached, so one that had already redialled
// on its own (possible when the listener outlives the process, as under
// `rrfdsim -substrate tcp`) pays a redundant reconnect.
func (p *peer) noteRestart() {
	select {
	case p.restarted <- struct{}{}:
	default:
	}
}

// send enqueues one encoded frame, shedding instead of blocking.
func (p *peer) send(buf []byte) error {
	select {
	case p.q <- buf:
		if p.nd.hQueue != nil {
			p.nd.hQueue.Record(int64(len(p.q)))
		}
		return nil
	default:
		p.nd.sheds.Add(1)
		p.nd.event("netsub.backpressure", map[string]any{"peer": int(p.to), "cap": cap(p.q)})
		return &BackpressureError{To: p.to, Cap: cap(p.q)}
	}
}

// run is the writer loop: dial with capped seeded-jitter backoff, then
// serve the queue until the connection breaks, then dial again. It exits
// on node close.
func (p *peer) run() {
	defer p.nd.wg.Done()
	// Each (node, peer) pair gets its own deterministic jitter stream so
	// a thundering herd of redials decorrelates reproducibly.
	bo := redial.Seeded(p.nd.cfg.Seed ^ (int64(p.nd.me)<<16 | int64(p.to)))
	hadConn := false
	for {
		if p.nd.closed() {
			return
		}
		conn, err := p.dial()
		if err != nil {
			p.nd.dialFails.Add(1)
			p.nd.event("netsub.dial_fail", map[string]any{"peer": int(p.to), "err": err.Error()})
			if !p.sleep(bo.NextDuration(p.nd.cfg.RedialUnit)) {
				return
			}
			continue
		}
		bo.Reset()
		// A restart announced before this dial completed is answered by
		// it: the connection reached the listener of the new process.
		select {
		case <-p.restarted:
		default:
		}
		p.nd.dials.Add(1)
		if hadConn {
			p.nd.reconnects.Add(1)
			p.nd.event("netsub.reconnect", map[string]any{"peer": int(p.to)})
		}
		hadConn = true
		p.setConn(conn)
		p.nd.event("netsub.conn_open", map[string]any{"peer": int(p.to), "dir": "out"})
		reason := p.serve(conn)
		p.setConn(nil)
		conn.Close()
		if !p.nd.closed() {
			p.nd.event("netsub.conn_close", map[string]any{"peer": int(p.to), "dir": "out", "reason": reason})
		}
	}
}

// dial opens the connection and sends the hello identifying this node.
func (p *peer) dial() (net.Conn, error) {
	conn, err := p.nd.cfg.dial(p.addr)
	if err != nil {
		return nil, err
	}
	body := appendHello(nil, hello{pid: p.nd.me, n: p.nd.n, incarnation: p.nd.cfg.Incarnation})
	buf, _ := AppendFrame(nil, FrameHello, body)
	conn.SetWriteDeadline(time.Now().Add(p.nd.cfg.WriteTimeout))
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// serve drains the queue onto one live connection, interleaving
// heartbeats, until the connection breaks, the remote restarts or the
// node closes. Everything already queued when the writer wakes leaves in
// one conn.Write. It returns a reason tag for the close event.
func (p *peer) serve(conn net.Conn) string {
	// The ack reader turns heartbeat echoes into RTT samples; it exits
	// when the connection is closed (here or by the remote).
	p.nd.wg.Add(1)
	go p.readAcks(conn)

	var hb <-chan time.Time
	if p.nd.cfg.HeartbeatEvery > 0 {
		t := time.NewTicker(p.nd.cfg.HeartbeatEvery)
		defer t.Stop()
		hb = t.C
	}
	for {
		if p.wn == 0 {
			select {
			case <-p.nd.done:
				return "closed"
			case <-p.restarted:
				return "restarted"
			case buf := <-p.q:
				p.gather(buf)
			case <-hb:
				if !p.write(conn, p.nd.encodeHeartbeat()) {
					return "write"
				}
				continue
			}
			// select picks at random among ready cases: frames taken
			// while a restart signal was pending wait in wbuf for the
			// next connection rather than die on this one.
			select {
			case <-p.restarted:
				return "restarted"
			default:
			}
		}
		n := int64(p.wn)
		ok := p.write(conn, p.wbuf)
		p.wbuf, p.wn = p.wbuf[:0], 0
		if !ok {
			return "write"
		}
		p.nd.framesSent.Add(n)
	}
}

// gather moves first, and whatever else is already queued up to
// maxWriteBytes, into wbuf.
func (p *peer) gather(first []byte) {
	p.wbuf, p.wn = append(p.wbuf, first...), 1
	for len(p.wbuf) < maxWriteBytes {
		select {
		case buf := <-p.q:
			p.wbuf = append(p.wbuf, buf...)
			p.wn++
		default:
			return
		}
	}
}

// write puts buf — whole frames — on the wire under the write deadline.
func (p *peer) write(conn net.Conn, buf []byte) bool {
	conn.SetWriteDeadline(time.Now().Add(p.nd.cfg.WriteTimeout))
	_, err := conn.Write(buf)
	return err == nil
}

// readAcks consumes the return direction of the outbound connection —
// heartbeat acks only — and histograms round-trip times.
func (p *peer) readAcks(conn net.Conn) {
	defer p.nd.wg.Done()
	br := bufio.NewReader(conn)
	var scratch []byte
	for {
		f, err := ReadFrame(br, &scratch)
		if err != nil {
			return
		}
		if f.Kind != FrameHeartbeatAck {
			continue
		}
		sent, n := binary.Uvarint(f.Payload)
		if n <= 0 {
			continue
		}
		if rtt := p.nd.nanos() - int64(sent); rtt >= 0 && p.nd.hRTT != nil {
			p.nd.hRTT.Record(rtt)
		}
	}
}

// setConn publishes the writer's current connection for closeConn.
func (p *peer) setConn(c net.Conn) {
	p.connMu.Lock()
	p.conn = c
	p.connMu.Unlock()
}

// closeConn closes the writer's current connection, if any, unblocking a
// stuck write or dial wait from outside the writer goroutine.
func (p *peer) closeConn() {
	p.connMu.Lock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.connMu.Unlock()
}

// sleep waits d, or until the remote restarts (its listener is back: no
// point sitting out the backoff) or the node closes, reporting whether the
// writer should continue.
func (p *peer) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-p.nd.done:
		return false
	case <-p.restarted:
	case <-timer.C:
	}
	return true
}
