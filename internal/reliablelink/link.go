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

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/obs"
)

// Config tunes one process's reliable link.
type Config struct {
	// RetransmitAfter is the step interval before the first retransmission
	// of an unacknowledged frame; 0 means 8. Each further retransmission
	// doubles the interval up to RetransmitCap.
	RetransmitAfter int

	// RetransmitCap bounds the backoff interval; 0 means 128.
	RetransmitCap int

	// MaxAttempts bounds retransmissions per frame: once a frame has been
	// retransmitted MaxAttempts times without an acknowledgement, the
	// sender gives it up for lost ("rlink.giveup") and stops spending
	// steps on it. 0 means 25. Any negative value means unlimited — the
	// sender retransmits forever and the give-up path never fires, so an
	// unreachable receiver is then handled only by the round watchdog
	// above the link. A given-up frame is NOT redelivered later: if the
	// receiver needed it, the round stalls and degrades into a D(i,r)
	// suspicion (see RunRounds), never into a deadlock.
	MaxAttempts int

	// Observer, when non-nil, receives "rlink.retransmit", "rlink.giveup",
	// "rlink.dup_rx" and "rlink.watchdog" events.
	Observer obs.Observer
}

func (c Config) retransmitAfter() int {
	if c.RetransmitAfter <= 0 {
		return 8
	}
	return c.RetransmitAfter
}

func (c Config) retransmitCap() int {
	if c.RetransmitCap <= 0 {
		return 128
	}
	return c.RetransmitCap
}

func (c Config) maxAttempts() int {
	switch {
	case c.MaxAttempts == 0:
		return 25
	case c.MaxAttempts < 0:
		return int(^uint(0) >> 1)
	default:
		return c.MaxAttempts
	}
}

// Stats counts one link's recovery work.
type Stats struct {
	// Sent counts first transmissions of data frames.
	Sent int

	// Retransmissions counts repeated transmissions of unacked frames.
	Retransmissions int

	// GiveUps counts frames abandoned after MaxAttempts retransmissions.
	GiveUps int

	// AcksReceived counts acknowledgement frames consumed.
	AcksReceived int

	// DupFramesReceived counts data frames suppressed as duplicates.
	DupFramesReceived int
}

// frame is the wire format: a data frame (Ack false) carries the
// application payload under a per-link sequence number; an ack frame echoes
// the sequence number back.
type frame struct {
	Seq int
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
// directed link are consecutive from 0, so both tables are indexed by
// them; they grow by one entry per frame for the life of the link, which
// is one bounded run.
type peer struct {
	nextSeq int
	frames  []pendingFrame // by sequence number of the frames sent
	seen    []bool         // by sequence number of the data frames delivered
}

// Link is one process's reliable endpoint: a decorator over the lossy
// Substrate it embeds (whose PID, Size and Clock it keeps). Acks, duplicate
// suppression and due retransmissions all happen under Recv/RecvTimeout,
// so a body that keeps receiving — as the round loop's linger does — keeps
// serving its peers. It is not safe for concurrent use; like Node, it
// belongs to the single goroutine running the process.
type Link struct {
	msgnet.Substrate
	cfg    Config
	policy backoff.Policy
	peers  []peer   // by pid; the loopback entry only counts sequence numbers
	order  []ackKey // frames awaiting an ack, in send order: the retransmission scan
	stats  Stats
}

var _ msgnet.Substrate = (*Link)(nil)

// New wraps a substrate endpoint in a reliable link.
func New(sub msgnet.Substrate, cfg Config) *Link {
	return &Link{
		Substrate: sub,
		cfg:       cfg,
		policy:    backoff.Policy{Initial: cfg.retransmitAfter(), Cap: cfg.retransmitCap()},
		peers:     make([]peer, sub.Size()),
	}
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
	p := &l.peers[to]
	seq := p.nextSeq
	p.nextSeq++
	var wire core.Value = frame{Seq: seq, App: payload}
	if err := l.Substrate.Send(to, wire); err != nil {
		return err
	}
	l.stats.Sent++
	if to == l.PID() {
		return nil
	}
	bo := *l.policy.Sequence()
	wait := bo.Next()
	p.frames = append(p.frames, pendingFrame{live: true, wire: wire, nextAt: l.Clock() + wait, wait: wait, seq: bo})
	l.order = append(l.order, ackKey{to, seq})
	return nil
}

// Broadcast sends payload reliably to every process including the sender.
func (l *Link) Broadcast(payload core.Value) error {
	for i := 0; i < l.Size(); i++ {
		if err := l.Send(core.PID(i), payload); err != nil {
			return err
		}
	}
	return nil
}

// noDeadline is the deadline of an unbounded Recv.
const noDeadline = int(^uint(0) >> 1)

// Recv blocks until the next fresh application message, retransmitting
// as timers fall due.
func (l *Link) Recv() (msgnet.Envelope, error) {
	env, _, err := l.RecvTimeout(noDeadline)
	return env, err
}

// RecvTimeout returns the next fresh application message, or false once
// the clock reaches the absolute deadline with nothing fresh delivered.
// Acks, duplicates, and due retransmissions are handled internally.
func (l *Link) RecvTimeout(deadline int) (msgnet.Envelope, bool, error) {
	for {
		timer, err := l.retransmitDue()
		if err != nil {
			return msgnet.Envelope{}, false, err
		}
		wake := min(deadline, timer)
		var env msgnet.Envelope
		got := true
		if wake == noDeadline {
			env, err = l.Substrate.Recv()
		} else {
			env, got, err = l.Substrate.RecvTimeout(wake)
		}
		if err != nil {
			return msgnet.Envelope{}, false, err
		}
		if !got {
			if l.Clock() >= deadline {
				return msgnet.Envelope{}, false, nil
			}
			continue // a retransmission timer fired first
		}
		f, isFrame := env.Payload.(frame)
		if !isFrame {
			return msgnet.Envelope{}, false, fmt.Errorf("reliablelink: foreign payload %T", env.Payload)
		}
		p := &l.peers[env.From]
		if f.Ack {
			// An ack for a frame this link never sent (a restarted process
			// can be handed one meant for its previous incarnation) or has
			// already settled is ignored.
			if f.Seq < len(p.frames) {
				p.frames[f.Seq] = pendingFrame{}
			}
			l.stats.AcksReceived++
			continue
		}
		if env.From != l.PID() {
			// Always re-ack: the previous ack may have been lost.
			if err := l.Substrate.Send(env.From, frame{Seq: f.Seq, Ack: true}); err != nil {
				return msgnet.Envelope{}, false, err
			}
		}
		if f.Seq < len(p.seen) && p.seen[f.Seq] {
			l.stats.DupFramesReceived++
			if l.cfg.Observer != nil {
				l.event("rlink.dup_rx", map[string]any{"from": int(env.From), "seq": f.Seq})
			}
			continue
		}
		for len(p.seen) <= f.Seq {
			p.seen = append(p.seen, false)
		}
		p.seen[f.Seq] = true
		env.Payload = f.App
		return env, true, nil
	}
}

// retransmitDue retransmits every unacked frame whose timer expired,
// walking frames in send order for determinism, and returns the earliest
// step at which one of those left falls due (noDeadline when none is).
func (l *Link) retransmitDue() (int, error) {
	timer := noDeadline
	now := l.Clock()
	kept := l.order[:0]
	for i, k := range l.order {
		pf := &l.peers[k.to].frames[k.seq]
		if !pf.live {
			continue // acked; compact out of the scan order
		}
		if pf.nextAt <= now {
			if pf.attempts >= l.cfg.maxAttempts() {
				l.stats.GiveUps++
				if l.cfg.Observer != nil {
					l.event("rlink.giveup", map[string]any{"to": int(k.to), "seq": k.seq, "attempts": pf.attempts})
				}
				*pf = pendingFrame{}
				continue
			}
			if err := l.Substrate.Send(k.to, pf.wire); err != nil {
				l.order = append(kept, l.order[i:]...)
				return 0, err
			}
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
		}
		kept = append(kept, k)
		timer = min(timer, pf.nextAt)
	}
	l.order = kept
	return timer, nil
}

// event reports to the observer; callers check cfg.Observer first, so the
// field map is only built when somebody listens.
func (l *Link) event(kind string, fields map[string]any) {
	l.cfg.Observer.Event(kind, -1, int(l.PID()), fields)
}
