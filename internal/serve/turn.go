// The turn: how the loop externalizes. Handlers (serve.go) only update the
// instance table and record effects here; flush is the one place a
// journal record, a readable decision, a client response or a mesh frame
// leaves the loop, once per drained queue and always in that order.
package serve

import (
	"maps"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// maxTurnEvents bounds how many queued events, or live deadlines, one turn
// handles before it flushes, so a deep backlog cannot hold the first
// event's ack hostage. Each adds at most one message per peer, so a turn's
// frame to a peer stays below netsub.MaxFramePayload.
const maxTurnEvents = 64

// turn is what the handlers of one turn want externalized. The journal
// payloads are slices of the turn's own buffer, and each peer's messages
// are its outbox's; reset keeps both: wal.Group.AppendBatch and
// Node.SendBytes are done with the bytes when they return, so flush
// leaves nothing that still points into them.
type turn struct {
	recs  []wal.BatchEntry // journal records, in order
	fresh map[string]int   // decisions among recs, not yet in the decided table
	acks  []ack            // client responses
	out   []outbox         // peer messages, indexed by destination pid
	acked int              // decisions among acks that reached ≥1 waiter

	jbuf []byte // recs' payloads
}

// outbox is what one turn sends one peer: its messages back to back,
// which are one mesh frame's payload (wire.go), and how many there are.
type outbox struct {
	msgs []byte
	n    int
}

// ack is one recorded client response.
type ack struct {
	cc    *clientConn
	start time.Time
	resp  Response
}

func (t *turn) journal(kind uint8, inst string, val int) {
	off := len(t.jbuf)
	t.jbuf = appendInstVal(t.jbuf, inst, val)
	t.recs = append(t.recs, wal.BatchEntry{Kind: kind, Payload: t.jbuf[off:len(t.jbuf):len(t.jbuf)]})
}

func (t *turn) respond(cc *clientConn, start time.Time, r Response) {
	t.acks = append(t.acks, ack{cc: cc, start: start, resp: r})
}

// send appends one peer message to to's outbox.
func (t *turn) send(to core.PID, kind byte, inst string, val int) {
	o := &t.out[to]
	o.msgs = appendPeerMsg(o.msgs, kind, inst, val)
	o.n++
}

// reset empties the turn, keeping its buffers but none of their contents.
func (t *turn) reset() {
	clear(t.recs)
	clear(t.fresh)
	clear(t.acks)
	t.recs, t.acks, t.acked = t.recs[:0], t.acks[:0], 0
	t.jbuf = t.jbuf[:0]
	for to := range t.out {
		t.out[to] = outbox{msgs: t.out[to].msgs[:0]}
	}
}

// lookup is the loop's own look-up: the decided table, which the loop
// alone writes and so reads without the lock, then this turn's decisions.
func (s *Server) lookup(inst string) (int, bool) {
	if val, ok := s.decided[inst]; ok {
		return val, true
	}
	val, ok := s.fresh[inst]
	return val, ok
}

// read is everybody else's look-up (a connection's reader): durable
// decisions only.
func (s *Server) read(inst string) (int, bool) {
	s.mu.Lock()
	val, ok := s.decided[inst]
	s.mu.Unlock()
	return val, ok
}

// deadline is one entry of the deadline heap: the TTL of the
// instance in record ins during its tenancy gen; its hedge, when hedge is
// set; or, when req is set, the deadline of its waiter for request req (a
// submit always names its request, so "" is free to mean the TTL). It is
// dead once that instance has settled — the record has moved on to a
// later tenancy — or no waiter for req is attached any more.
type deadline struct {
	at    time.Time
	ins   *instance
	gen   uint32
	hedge bool
	req   string
}

func (d *deadline) dead() bool {
	return d.gen != d.ins.gen || d.req != "" && d.ins.waiting(d.req) < 0
}

// deadlines is a binary min-heap by at; not FIFO, since a request names
// its own timeout. A dead entry stays until expire pops it or schedule
// sweeps it.
type deadlines []deadline

func (q deadlines) less(i, j int) bool { return q[i].at.Before(q[j].at) }

// push adds d.
func (q *deadlines) push(d deadline) {
	*q = append(*q, d)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pop removes and returns the earliest entry; the heap must not be empty.
func (q *deadlines) pop() deadline {
	h := *q
	d, last := h[0], len(h)-1
	h[0] = h[last]
	h[last] = deadline{}
	*q = h[:last]
	q.down(0)
	return d
}

// down sifts entry i toward the leaves.
func (q deadlines) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(q) {
			return
		}
		if r := c + 1; r < len(q) && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			return
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
}

// schedule queues d. A full heap first sweeps out its dead entries, and
// keeps room for as many again as survive: instances that decide long
// before their TTL would otherwise hold it at throughput × TTL entries.
func (s *Server) schedule(d deadline) {
	if len(s.due) == cap(s.due) {
		s.due = slices.DeleteFunc(s.due, func(e deadline) bool { return e.dead() })
		for i := len(s.due)/2 - 1; i >= 0; i-- {
			s.due.down(i)
		}
		s.due = slices.Grow(s.due, len(s.due))
	}
	s.due.push(d)
}

// loop is the server's event loop: it owns every instance and is the only
// writer of the table. It runs in turns: take whatever is queued (at most
// maxTurnEvents) or due, let the handlers update the table and record what
// they want journaled, acknowledged and sent, then flush once. One timer,
// armed for the deadline heap's head, is its clock.
func (s *Server) loop() {
	defer s.wg.Done()
	// A wake with nothing due expires nothing and re-arms.
	clock := time.NewTimer(s.cfg.InstanceTTL)
	defer clock.Stop()
	var armed time.Time // the deadline clock is set for
	for {
		select {
		case <-s.done:
			return
		default:
		}
		n := 1
		select {
		case <-s.done:
			return
		case now := <-clock.C:
			armed = time.Time{}
			s.expire(now)
		case e := <-s.ev:
			s.handle(e)
		drain:
			for ; n < maxTurnEvents; n++ {
				select {
				case e = <-s.ev:
					s.handle(e)
				default:
					break drain
				}
			}
		}
		s.hTurnEvents.Record(int64(n))
		if s.flush() {
			return // crashed, or the journal refused: the loop dies mid-stride
		}
		// A turn that left due deadlines behind re-arms for the past:
		// the clock fires at once.
		if len(s.due) > 0 && !s.due[0].at.Equal(armed) {
			armed = s.due[0].at
			clock.Reset(time.Until(armed))
		}
	}
}

// flush ends a turn: one journal append carrying every record of the turn
// (it returns once they are durable per the SyncMode), then its decisions
// become readable off the loop, then the client responses, then at most
// one mesh frame per peer. A crash at any point
// either loses instances no client was ever told about, or loses nothing.
// If the journal refuses the append nothing of the turn leaves, and since
// the table is now ahead of the journal the server stops serving. With
// AckBeforeJournalBug the responses leave first, so a crash in the window
// (which CrashAfterAcks plants deterministically) loses decisions a
// client already holds — the violation the chaos campaign exists to
// catch. Returns true when the loop must die.
func (s *Server) flush() bool {
	defer s.turn.reset()
	bug := s.cfg.AckBeforeJournalBug
	if bug && s.release() {
		s.crash() // clients hold the acks, the journal never hears of them
		return true
	}
	if len(s.recs) > 0 {
		t0 := time.Now()
		if _, err := s.group.AppendBatch(s.recs); err != nil {
			s.event("serve.journal_refused", map[string]any{"err": err.Error(), "records": len(s.recs)})
			s.halt()
			return true
		}
		s.hTurnJournal.Since(t0)
	}
	if len(s.fresh) > 0 {
		s.mu.Lock()
		maps.Copy(s.decided, s.fresh)
		s.mu.Unlock()
	}
	crash := !bug && s.release()
	for to, o := range s.out {
		if o.n == 0 {
			continue
		}
		s.hBcast.Record(int64(o.n))
		// A shed or a closing mesh is a lost message: the origin's
		// deadline and resubmission cover it.
		_ = s.node.SendBytes(core.PID(to), o.msgs)
	}
	if crash {
		s.crash()
	}
	return crash
}

// release hands the turn's responses to their connections, counts the
// decisions acknowledged to at least one client, and reports whether the
// CrashAfterAcks hook fires on this turn.
func (s *Server) release() bool {
	for i := range s.acks {
		a := &s.acks[i]
		s.hReq.Since(a.start)
		if !a.cc.write(&a.resp) {
			a.cc.c.Close() // slow client: shed the connection, not the server
		}
	}
	if s.acked == 0 {
		return false
	}
	k := int64(s.acked)
	n := s.ctr.ackedDecisions.Add(k)
	at := int64(s.cfg.CrashAfterAcks)
	return at > 0 && n-k < at && at <= n
}
