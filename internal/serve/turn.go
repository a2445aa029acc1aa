// The turn: how a shard loop externalizes. Handlers (serve.go) only update
// the shard's table and record effects here; flush is the one place a
// journal record, a readable decision, a client response or a mesh frame
// leaves the loop, once per drained queue and always in that order.
package serve

import (
	"container/heap"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// maxTurnEvents bounds how many queued events one turn handles before it
// flushes, so a deep backlog cannot hold the first event's ack hostage.
const maxTurnEvents = 64

// turn is what the handlers of one turn want externalized.
type turn struct {
	recs  []wal.BatchEntry // journal records, in order
	fresh map[string]int   // decisions among recs, not yet in the decided table
	acks  []ack            // client responses
	out   [][][]byte       // peer messages, indexed by destination pid
	acked int              // decisions among acks that reached ≥1 waiter
}

// ack is one recorded client response.
type ack struct {
	cc    *clientConn
	start time.Time
	resp  Response
}

func (t *turn) journal(kind uint8, inst string, val int) {
	t.recs = append(t.recs, wal.BatchEntry{Kind: kind, Payload: encodeInstVal(inst, val)})
}

func (t *turn) respond(cc *clientConn, start time.Time, r Response) {
	t.acks = append(t.acks, ack{cc: cc, start: start, resp: r})
}

func (t *turn) send(to core.PID, msg []byte) {
	t.out[to] = append(t.out[to], msg)
}

// reset empties the turn, keeping its buffers but none of their contents.
func (t *turn) reset() {
	clear(t.recs)
	clear(t.fresh)
	clear(t.acks)
	t.recs, t.acks, t.acked = t.recs[:0], t.acks[:0], 0
	for to, msgs := range t.out {
		clear(msgs)
		t.out[to] = msgs[:0]
	}
}

// lookup is the loop's own look-up: the decided table, which the loop
// alone writes and so reads without the lock, then this turn's decisions.
func (t *shardTable) lookup(inst string) (int, bool) {
	if val, ok := t.decided[inst]; ok {
		return val, true
	}
	val, ok := t.fresh[inst]
	return val, ok
}

// read is everybody else's look-up (a connection's reader): durable
// decisions only.
func (t *shardTable) read(inst string) (int, bool) {
	t.mu.Lock()
	val, ok := t.decided[inst]
	t.mu.Unlock()
	return val, ok
}

// deadline is one entry of a shard's deadline heap: instance ins's TTL,
// or, when req is set, the deadline of its waiter for request req (a
// submit always names its request, so "" is free to mean the TTL). It is
// dead once ins has settled, or no waiter for req is attached any more.
type deadline struct {
	at  time.Time
	ins *instance
	req string
}

// deadlines is a container/heap min-heap by at; not FIFO, since a request
// names its own timeout. A dead entry stays until expire pops it or
// schedule sweeps it.
type deadlines []deadline

func (q deadlines) Len() int           { return len(q) }
func (q deadlines) Less(i, j int) bool { return q[i].at.Before(q[j].at) }
func (q deadlines) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *deadlines) Push(x any)        { *q = append(*q, x.(deadline)) }
func (q *deadlines) Pop() any {
	old := *q
	d := old[len(old)-1]
	old[len(old)-1] = deadline{}
	*q = old[:len(old)-1]
	return d
}

// schedule queues d. A full heap first sweeps out its dead entries, and
// keeps room for as many again as survive: instances that decide long
// before their TTL would otherwise hold it at throughput × TTL entries.
func (t *shardTable) schedule(d deadline) {
	if len(t.due) == cap(t.due) {
		t.due = slices.DeleteFunc(t.due, func(e deadline) bool {
			return e.ins.settled || e.req != "" && e.ins.waiting(e.req) < 0
		})
		heap.Init(&t.due)
		t.due = slices.Grow(t.due, len(t.due))
	}
	heap.Push(&t.due, d)
}

// loop is one shard's event loop: it exclusively owns the instances that
// hash to shard i and is the only writer of its table. It runs in turns: take
// whatever is queued (at most maxTurnEvents) or due, let the handlers update
// the table and record what they want journaled, acknowledged and sent, then
// flush once. One timer, armed for the deadline heap's head, is its clock.
func (s *Server) loop(i int) {
	defer s.wg.Done()
	t := &s.sh[i]
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
			s.expire(t, now)
		case e := <-s.ev[i]:
			s.handle(t, e)
		drain:
			for ; n < maxTurnEvents; n++ {
				select {
				case e = <-s.ev[i]:
					s.handle(t, e)
				default:
					break drain
				}
			}
		}
		if s.hTurnEvents != nil {
			s.hTurnEvents.Record(int64(n))
		}
		if s.flush(t) {
			return // crashed, or the journal refused: the loop dies mid-stride
		}
		if len(t.due) > 0 && !t.due[0].at.Equal(armed) {
			armed = t.due[0].at
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
func (s *Server) flush(t *shardTable) bool {
	defer t.reset()
	bug := s.cfg.AckBeforeJournalBug
	if bug && s.release(&t.turn) {
		s.crash() // clients hold the acks, the journal never hears of them
		return true
	}
	if len(t.recs) > 0 {
		var t0 time.Time
		if s.hTurnJournal != nil {
			t0 = time.Now()
		}
		if _, err := s.group.AppendBatch(t.recs); err != nil {
			s.event("serve.journal_refused", map[string]any{"err": err.Error(), "records": len(t.recs)})
			s.halt()
			return true
		}
		if s.hTurnJournal != nil {
			s.hTurnJournal.Record(time.Since(t0).Nanoseconds())
		}
	}
	if len(t.fresh) > 0 {
		t.mu.Lock()
		for inst, val := range t.fresh {
			t.decided[inst] = val
		}
		t.mu.Unlock()
	}
	crash := !bug && s.release(&t.turn)
	for to, msgs := range t.out {
		if len(msgs) == 0 {
			continue
		}
		if s.hBcast != nil {
			s.hBcast.Record(int64(len(msgs)))
		}
		frame := msgs[0]
		if len(msgs) > 1 {
			frame = encodePeerBatch(msgs)
		}
		// A shed or a closing mesh is a lost message: the origin's
		// deadline and resubmission cover it.
		_ = s.node.Send(core.PID(to), frame)
	}
	if crash {
		s.crash()
	}
	return crash
}

// release hands the turn's responses to their connections, counts the
// decisions acknowledged to at least one client, and reports whether the
// CrashAfterAcks hook fires on this turn.
func (s *Server) release(t *turn) bool {
	for i := range t.acks {
		a := &t.acks[i]
		if s.hReq != nil {
			s.hReq.Record(time.Since(a.start).Nanoseconds())
		}
		select {
		case a.cc.out <- a.resp:
		default:
			a.cc.c.Close() // slow client: shed the connection, not the server
		}
	}
	if t.acked == 0 {
		return false
	}
	k := int64(t.acked)
	n := s.acked.Add(k)
	s.ctr.ackedDecisions.Add(k)
	at := int64(s.cfg.CrashAfterAcks)
	return at > 0 && n-k < at && at <= n
}
