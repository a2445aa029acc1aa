package netsub

import (
	"net"
	"sync"
	"time"

	"repro/internal/core"
)

// peer is one outbound lane of the pool: the Lane every sender to the
// peer writes through, and a goroutine that owns dialing, the heartbeat
// and the connection, and writes the lane's queue when a sender could
// not. The lane is connected or redialing; a peer that is down or never
// reads costs its bounded queue, one write per write timeout and one dial
// per redial step, and is heard again as soon as it is back.
type peer struct {
	nd   *Node
	to   core.PID
	addr string

	lane *Lane

	// connMu guards conn, the writer's current connection; closeConn uses
	// it to unblock the writer on node close.
	connMu sync.Mutex
	conn   net.Conn
}

func newPeer(nd *Node, to core.PID, addr string) *peer {
	return &peer{
		nd: nd, to: to, addr: addr,
		lane: NewLane(nil, nd.cfg.SendQueue),
	}
}

// noteRestart is called by the inbound side when the remote announced a
// newer incarnation than the last one seen. The lane stops writing to its
// connection at once; the writer then redials. The lane cannot tell which
// incarnation its connection reached, so one that had already redialled
// on its own (possible when the listener outlives the process, as under
// `rrfdsim tcp`) pays a redundant reconnect.
func (p *peer) noteRestart() { p.lane.restart() }

// push sends the data frame b, built on the lane's Buf, shedding instead
// of blocking. A frame the lane accepts counts as sent, and counts before
// the lane may write it: whoever sees what the frame caused sees it
// counted. A shed takes the count back.
func (p *peer) push(b []byte) error {
	p.nd.framesSent.Add(1)
	depth, ok := p.lane.Push(b)
	if !ok {
		p.nd.framesSent.Add(-1)
		p.nd.sheds.Add(1)
		if p.nd.cfg.Observer != nil {
			p.nd.event("netsub.backpressure", map[string]any{"peer": int(p.to), "cap": p.lane.max})
		}
		return &BackpressureError{To: p.to, Cap: p.lane.max}
	}
	p.nd.hQueue.Record(int64(depth))
	return nil
}

// run is the writer loop: dial with capped seeded-jitter backoff, then
// serve the lane until the connection breaks, then dial again. It exits
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
			if !p.sleep(bo.NextDuration(redialUnit)) {
				return
			}
			continue
		}
		bo.Reset()
		p.nd.dials.Add(1)
		if hadConn {
			p.nd.reconnects.Add(1)
			p.nd.event("netsub.reconnect", map[string]any{"peer": int(p.to)})
		}
		hadConn = true
		p.setConn(conn)
		p.nd.event("netsub.conn_open", map[string]any{"peer": int(p.to), "dir": "out"})
		reason := p.serve(conn)
		p.lane.detach()
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
	conn.SetWriteDeadline(time.Now().Add(p.nd.cfg.writeTimeout))
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Time{}) // the lane's inline writes take none
	return conn, nil
}

// serve makes conn the lane's live connection and writes what senders
// queue, interleaving heartbeats, until the connection breaks, the remote
// restarts or the node closes. Everything queued when the writer wakes
// leaves in one conn.Write. Nothing reads conn: a dead one is found by a
// failed write or one blocked past the write timeout. It returns a
// reason tag for the close event.
func (p *peer) serve(conn net.Conn) string {
	var hb <-chan time.Time
	if p.nd.cfg.HeartbeatEvery > 0 {
		t := time.NewTicker(p.nd.cfg.HeartbeatEvery)
		defer t.Stop()
		hb = t.C
	}
	// A restart announced before this point is answered by conn: it
	// reached the listener of the new process.
	p.lane.attach(conn)
	for {
		// select picks at random among ready cases; a restart has
		// detached the lane already, so frames queued meanwhile wait for
		// the next connection rather than die on this one.
		select {
		case <-p.nd.done:
			return "closed"
		case <-p.lane.restarted:
			return "restarted"
		case <-p.lane.Wake():
			if p.lane.Flush(p.nd.cfg.writeTimeout) != nil {
				return "write"
			}
		case <-hb:
			p.lane.Push(p.nd.appendHeartbeat(p.lane.Buf()))
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
	case <-p.lane.restarted:
	case <-timer.C:
	}
	return true
}
