// Package reliablelink recovers reliable, exactly-once message delivery on
// top of the lossy msgnet substrate: every data frame carries a per-link
// sequence number, receivers acknowledge and deduplicate, and senders
// retransmit unacknowledged frames with capped exponential backoff driven by
// the scheduler's step clock (no wall time anywhere).
//
// A Link is itself a msgnet.Substrate, so RunRounds is the one §2 item 3
// round loop (msgnet.RunSubstrateRounds) run over links with a watchdog:
// a round that stalls despite retransmission — because a sender crashed,
// omitted, or sits behind an unhealed partition — degrades gracefully into
// RRFD suspicions (the missing senders become D(i,r) entries) instead of
// deadlocking, and the RunReport records who stalled, on whom, and when.
package reliablelink

import (
	"fmt"
	"sync"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/obs"
)

// Config tunes one process's reliable link. Its three retransmission
// hooks are the package's tests': the event streams its goldens pin
// depend on their values.
type Config struct {
	// retransmitAfter is the step interval before the first
	// retransmission of an unacknowledged frame; 0 means 8. Each further
	// retransmission doubles the interval up to retransmitCap.
	retransmitAfter int

	// retransmitCap bounds the backoff interval; 0 means 128.
	retransmitCap int

	// maxAttempts bounds retransmissions per frame: once a frame has been
	// retransmitted maxAttempts times without an acknowledgement, the
	// sender gives it up for lost ("rlink.giveup") and stops spending
	// steps on it. 0 means 25. Any negative value means unlimited — the
	// sender retransmits forever and the give-up path never fires, so an
	// unreachable receiver is then handled only by the round watchdog
	// above the link. A given-up frame is NOT redelivered later: if the
	// receiver needed it, the round stalls and degrades into a D(i,r)
	// suspicion (see RunRounds), never into a deadlock.
	maxAttempts int

	// Observer, when non-nil, receives "rlink.retransmit", "rlink.giveup",
	// "rlink.dup_rx" and "rlink.watchdog" events.
	Observer obs.Observer
}

func (c Config) firstInterval() int {
	if c.retransmitAfter <= 0 {
		return 8
	}
	return c.retransmitAfter
}

func (c Config) intervalCap() int {
	if c.retransmitCap <= 0 {
		return 128
	}
	return c.retransmitCap
}

func (c Config) attemptLimit() int {
	switch {
	case c.maxAttempts == 0:
		return 25
	case c.maxAttempts < 0:
		return int(^uint(0) >> 1)
	default:
		return c.maxAttempts
	}
}

// Stats counts one link's recovery work.
type Stats struct {
	// Sent counts first transmissions of data frames.
	Sent int

	// Retransmissions counts repeated transmissions of unacked frames.
	Retransmissions int

	// GiveUps counts frames abandoned after the retransmission limit.
	GiveUps int

	// AcksReceived counts acknowledgement frames consumed.
	AcksReceived int

	// DupFramesReceived counts data frames suppressed as duplicates.
	DupFramesReceived int
}

// frame is the wire format: a data frame (Ack false) carries the
// application payload under a per-link sequence number and its sender's
// incarnation; an ack frame echoes both back. (An int32 incarnation keeps a
// frame in 32 bytes.)
type frame struct {
	Seq int
	Inc int32
	Ack bool
	App core.Value
}

type ackKey struct {
	to  core.PID
	seq int
}

type pendingFrame struct {
	live     bool       // sent and neither acknowledged nor given up
	wire     core.Value // the data frame, boxed once for every transmission
	nextAt   int        // step of the next retransmission
	wait     int        // the interval that expires at nextAt
	seq      backoff.Seq
	attempts int
}

// peer is a link's state towards one process. Sequence numbers on a
// directed link are consecutive from 0, within an incarnation of its
// sender, so the tables are indexed by them; they grow by one entry per
// frame for the life of the link, which is one bounded run.
type peer struct {
	nextSeq int
	frames  []pendingFrame // by sequence number of the frames sent
	inc     int32          // the peer's newest incarnation a data frame came from
	seen    []bool         // by sequence number of inc's data frames delivered
	acks    []core.Value   // by sequence number: the ack of inc's data frame, boxed once
}

// ack returns the ack of the peer's data frame seq, boxed at its first use.
func (p *peer) ack(seq int) core.Value {
	for len(p.acks) <= seq {
		p.acks = append(p.acks, nil)
	}
	if p.acks[seq] == nil {
		p.acks[seq] = frame{Seq: seq, Inc: p.inc, Ack: true}
	}
	return p.acks[seq]
}

// tables is what a Link grows as its run sends and receives: the per-peer
// tables and the retransmission scan order. RunRounds hands a link's tables,
// emptied, to the next New once it has read the link's Stats, so the runs
// of a campaign regrow none of them; two live links never share one.
type tables struct {
	peers []peer   // by pid; the loopback entry only counts sequence numbers
	order []ackKey // frames awaiting an ack, in send order: the retransmission scan
}

var tableSets = sync.Pool{New: func() any { return new(tables) }}

// Link is one process's reliable endpoint: a decorator over the lossy
// Substrate it embeds (whose PID, Size, Clock and Incarnation it keeps).
// Acks, duplicate suppression and due retransmissions all happen under
// Recv/RecvTimeout, so a body that keeps receiving — as the round loop's
// linger does — keeps serving its peers. It is not safe for concurrent use; like Node, it
// belongs to the single goroutine running the process.
//
// Every call is one msgnet.Drive with the link as the Handler. Over a
// *msgnet.Node that means the body sleeps through the whole call while the
// link's bookkeeping between two operations runs on whichever goroutine
// holds the scheduler (see msgnet.Handler): the body is woken for a fresh
// message, its deadline or an error, never for an ack, a duplicate or a
// retransmission.
type Link struct {
	msgnet.Substrate
	cfg Config
	inc int32 // the incarnation of the process, stamped in its data frames
	*tables
	stats Stats
	pump  pump
}

// pump is the state of the drive in progress: which operation is in flight
// and what the handler needs to carry on from its result (DESIGN §11 "The
// handler" has the contract). The machine:
//
//	RecvTimeout(deadline) ── rescan: now = Clock(); now < timer ──────────▶ receiving
//	          │                   (nothing is due: the walk waits for a later receive)
//	          ▼ kept = 0, timer = ∞
//	      scanning: walk order[i:] in send order
//	          │   settled → drop · not due at now → keep, timer = min(timer, nextAt)
//	          │   out of attempts → give up · due ──send the boxed frame──▶ Handle:
//	          │                                      attempts++, re-arm, keep, walk on from i+1
//	          ▼ end of order: order = order[:kept]
//	      receiving: recv until min(deadline, timer)
//	          │
//	          ├─ nothing, Clock() < deadline (a timer fired) ───────────▶ rescan
//	          ├─ nothing, deadline reached ─────────────────────────────▶ done: false
//	          ├─ not a frame ───────────────────────────────────────────▶ done: error
//	          ├─ an ack: settle the frame it names (timer = 0 if earliest) ▶ rescan
//	          ├─ a data frame of a gone incarnation of its sender ──────▶ rescan
//	          ├─ a data frame off the loopback link ────────────────────▶ deliver
//	          └─ a data frame from a peer ──send its ack── acking ──────▶ deliver
//	                                   (always: the previous ack may be lost)
//	      deliver: seen before → rlink.dup_rx ──▶ rescan · fresh → done: the message
type pump struct {
	state    pumpState
	i, kept  int        // scanning: order[i] is being retransmitted, order[:kept] stays
	now      int        // scanning: the clock when the walk began, which decides what is due
	timer    int        // the earliest timer among order[:kept] while scanning, else among the live frames; 0: unknown
	deadline int        // of the RecvTimeout being served
	app      core.Value // the application payload being broadcast, or delivered
	wire     core.Value // sending, broadcasting: the frame stamped last
}

type pumpState uint8

const (
	sending      pumpState = iota // one stamped frame
	broadcasting                  // a stamped frame, more peers to go
	scanning                      // a retransmission
	receiving                     // the receive a finished walk leads to
	acking                        // the ack of the data frame just received
)

var _ msgnet.Substrate = (*Link)(nil)

// New wraps a substrate endpoint in a reliable link, whose frames carry
// the endpoint's incarnation.
func New(sub msgnet.Substrate, cfg Config) *Link {
	t, n := tableSets.Get().(*tables), sub.Size()
	if cap(t.peers) < n {
		t.peers = make([]peer, n)
	}
	t.peers = t.peers[:n]
	return &Link{Substrate: sub, cfg: cfg, inc: int32(sub.Incarnation()), tables: t}
}

// release empties the link's tables, keeping their capacity, for the next
// New; the link is unusable afterwards.
func (l *Link) release() {
	t := l.tables
	for i := range t.peers {
		p := &t.peers[i]
		clear(p.frames)
		clear(p.acks)
		*p = peer{frames: p.frames[:0], seen: p.seen[:0], acks: p.acks[:0]}
	}
	t.order = t.order[:0]
	l.tables = nil
	tableSets.Put(t)
}

// Stats returns the link's recovery counters so far.
func (l *Link) Stats() Stats { return l.stats }

// Send transmits payload to process to, tracked for retransmission until
// acknowledged. The loopback link is reliable by construction, so self
// sends are not tracked.
func (l *Link) Send(to core.PID, payload core.Value) error {
	if to < 0 || int(to) >= len(l.peers) {
		return fmt.Errorf("reliablelink: send to invalid process %d", to)
	}
	l.pump.state, l.pump.wire = sending, nil
	_, err := msgnet.Drive(l.Substrate, l.stamp(to, payload), (*handler)(l))
	return err
}

// Broadcast sends payload reliably to every process including the sender.
func (l *Link) Broadcast(payload core.Value) error {
	l.pump.state, l.pump.app, l.pump.wire = broadcasting, payload, nil
	_, err := msgnet.Drive(l.Substrate, l.stamp(0, payload), (*handler)(l))
	return err
}

// Recv blocks until the next fresh application message, retransmitting
// as timers fall due.
func (l *Link) Recv() (msgnet.Envelope, error) {
	env, _, err := l.RecvTimeout(msgnet.NoDeadline)
	return env, err
}

// RecvTimeout returns the next fresh application message, or false once
// the clock reaches the absolute deadline with nothing fresh delivered.
// Acks, duplicates, and due retransmissions are handled internally.
func (l *Link) RecvTimeout(deadline int) (msgnet.Envelope, bool, error) {
	l.pump.deadline = deadline
	res, err := msgnet.Drive(l.Substrate, l.rescan(), (*handler)(l))
	switch _, isFrame := res.Env.Payload.(frame); {
	case err != nil:
		if l.pump.state == scanning { // a retransmission failed: the frames behind it stay in the order
			l.order = append(l.order[:l.pump.kept], l.order[l.pump.i:]...)
		}
		return msgnet.Envelope{}, false, err
	case !res.Got:
		return msgnet.Envelope{}, false, nil
	case !isFrame:
		return msgnet.Envelope{}, false, fmt.Errorf("reliablelink: foreign payload %T", res.Env.Payload)
	}
	// The drive ended on a fresh frame off the loopback link or on the ack
	// just sent for one: either is addressed to the frame's sender.
	return msgnet.Envelope{From: res.Env.To, To: l.PID(), Payload: l.pump.app}, true, nil
}

// handler is a Link as the msgnet.Handler of its own drives. Over a Node it
// runs on the scheduler's holder, the link's process parked.
type handler Link

// Handle books the operation just performed and names the next one.
func (h *handler) Handle(last msgnet.Result) (msgnet.Op, bool) {
	l, pm := (*Link)(h), &h.pump
	switch pm.state {
	case sending, broadcasting:
		l.book(last.Env)
		to := last.Env.To + 1
		if pm.state == sending || int(to) == len(l.peers) {
			return msgnet.Op{}, false
		}
		return l.stamp(to, pm.app), true
	case scanning:
		k := l.order[pm.i]
		pf := &l.peers[k.to].frames[k.seq]
		pf.attempts++
		l.stats.Retransmissions++
		// The reported interval is the backoff that just expired — a
		// deterministic step count from the shared capped-exponential
		// ladder, so observers can histogram it.
		if l.cfg.Observer != nil {
			l.event("rlink.retransmit", map[string]any{"to": int(k.to), "seq": k.seq, "attempt": pf.attempts, "interval": pf.wait})
		}
		pf.wait = pf.seq.Next()
		pf.nextAt = l.Clock() + pf.wait
		l.keep(k, pf.nextAt)
		return l.scan(pm.i + 1), true
	case receiving:
		return l.received(last)
	default: // acking: the ack just sent names the data frame it answers
		return l.deliver(last.Env.To, last.Env.Payload.(frame).Seq)
	}
}

// stamp puts payload under the next sequence number of the link to peer to.
// A broadcast reaches its peers at the same number unless a Send came in
// between, so a peer's frame shares the box of the frame stamped before it
// whenever the numbers agree.
func (l *Link) stamp(to core.PID, payload core.Value) msgnet.Op {
	p, pm := &l.peers[to], &l.pump
	if pm.wire == nil || pm.wire.(frame).Seq != p.nextSeq {
		pm.wire = frame{Seq: p.nextSeq, Inc: l.inc, App: payload}
	}
	p.nextSeq++
	return msgnet.Op{Send: true, To: to, Payload: pm.wire}
}

// book tracks the data frame just sent — boxed at most once, in stamp, for
// every transmission — until it is acknowledged or given up.
func (l *Link) book(sent msgnet.Envelope) {
	l.stats.Sent++
	if sent.To == l.PID() {
		return
	}
	bo := *backoff.Policy{Initial: l.cfg.firstInterval(), Cap: l.cfg.intervalCap()}.Sequence()
	wait := bo.Next()
	p := &l.peers[sent.To]
	p.frames = append(p.frames, pendingFrame{live: true, wire: sent.Payload, nextAt: l.Clock() + wait, wait: wait, seq: bo})
	l.order = append(l.order, ackKey{sent.To, sent.Payload.(frame).Seq})
	l.pump.timer = min(l.pump.timer, l.Clock()+wait)
}

// rescan begins the walk every receive starts with: retransmit each unacked
// frame whose timer has expired, in send order for determinism, then
// receive until the caller's deadline or the earliest timer left. Before
// the earliest timer nothing is due and the walk would only drop settled
// frames, so it is left for a later receive.
func (l *Link) rescan() msgnet.Op {
	pm, now := &l.pump, l.Clock()
	if now < pm.timer {
		pm.state = receiving
		return msgnet.Op{Deadline: min(pm.deadline, pm.timer)}
	}
	pm.kept, pm.now, pm.timer = 0, now, msgnet.NoDeadline
	return l.scan(0)
}

// scan walks order[i:], compacting settled frames out, up to the next frame
// due — whose retransmission it asks for — or to the end and the receive.
func (l *Link) scan(i int) msgnet.Op {
	pm := &l.pump
	for ; i < len(l.order); i++ {
		k := l.order[i]
		pf := &l.peers[k.to].frames[k.seq]
		switch {
		case !pf.live: // acked
		case pf.nextAt > pm.now:
			l.keep(k, pf.nextAt)
		case pf.attempts >= l.cfg.attemptLimit():
			l.stats.GiveUps++
			if l.cfg.Observer != nil {
				l.event("rlink.giveup", map[string]any{"to": int(k.to), "seq": k.seq, "attempts": pf.attempts})
			}
			*pf = pendingFrame{}
		default:
			pm.state, pm.i = scanning, i
			return msgnet.Op{Send: true, To: k.to, Payload: pf.wire}
		}
	}
	l.order = l.order[:pm.kept]
	pm.state = receiving
	return msgnet.Op{Deadline: min(pm.deadline, pm.timer)}
}

// keep leaves k, which next falls due at nextAt, in the scan order.
func (l *Link) keep(k ackKey, nextAt int) {
	l.order[l.pump.kept] = k
	l.pump.kept++
	l.pump.timer = min(l.pump.timer, nextAt)
}

// received sorts what the receive after a walk returned: nothing, an ack
// or a data frame, which a peer is always sent an ack for — the previous
// one may have been lost — before the duplicate check. A data frame of an
// incarnation older than one already heard from its sender is neither: that
// sender is gone and waits for no ack.
func (l *Link) received(res msgnet.Result) (msgnet.Op, bool) {
	f, isFrame := res.Env.Payload.(frame)
	switch from := res.Env.From; {
	case !res.Got && l.Clock() < l.pump.deadline:
		return l.rescan(), true // a retransmission timer fired first
	case !res.Got, !isFrame:
		return msgnet.Op{}, false // RecvTimeout tells the deadline from a foreign payload
	case f.Ack:
		// An ack for a frame this link never sent (a restarted process
		// can be handed one meant for its previous incarnation) or has
		// already settled is ignored.
		if p := &l.peers[from]; f.Inc == l.inc && f.Seq < len(p.frames) {
			if pf := &p.frames[f.Seq]; pf.live && pf.nextAt <= l.pump.timer {
				l.pump.timer = 0 // it may have been the earliest
			}
			p.frames[f.Seq] = pendingFrame{}
		}
		l.stats.AcksReceived++
		return l.rescan(), true
	case f.Inc < l.peers[from].inc:
		return l.rescan(), true
	default:
		p := &l.peers[from]
		if f.Inc > p.inc { // a restarted sender numbers its frames from 0 again
			clear(p.acks)
			p.inc, p.seen, p.acks = f.Inc, p.seen[:0], p.acks[:0]
		}
		l.pump.app = f.App
		if from == l.PID() {
			return l.deliver(from, f.Seq)
		}
		l.pump.state = acking
		return msgnet.Op{Send: true, To: from, Payload: p.ack(f.Seq)}, true
	}
}

// deliver ends the drive if from's frame seq is fresh, and suppresses it
// as a duplicate otherwise.
func (l *Link) deliver(from core.PID, seq int) (msgnet.Op, bool) {
	p := &l.peers[from]
	if seq < len(p.seen) && p.seen[seq] {
		l.stats.DupFramesReceived++
		if l.cfg.Observer != nil {
			l.event("rlink.dup_rx", map[string]any{"from": int(from), "seq": seq})
		}
		return l.rescan(), true
	}
	for len(p.seen) <= seq {
		p.seen = append(p.seen, false)
	}
	p.seen[seq] = true
	return msgnet.Op{}, false
}

// event reports to the observer; callers check cfg.Observer first, so the
// field map is only built when somebody listens.
func (l *Link) event(kind string, fields map[string]any) {
	l.cfg.Observer.Observe(obs.Event{Kind: kind, R: -1, P: int(l.PID()), Fields: fields})
}
