package reliablelink

import (
	"testing"

	"repro/internal/core"
	"repro/internal/msgnet"
)

// scriptedSub is a two-process substrate endpoint for p0 that swallows
// sends and delivers next, if set, or else lets the clock run to the
// receive deadline.
type scriptedSub struct {
	clock int
	next  *msgnet.Envelope
}

func (s *scriptedSub) PID() core.PID                   { return 0 }
func (s *scriptedSub) Size() int                       { return 2 }
func (s *scriptedSub) Clock() int                      { return s.clock }
func (s *scriptedSub) Incarnation() int                { return 1 }
func (s *scriptedSub) Send(core.PID, core.Value) error { return nil }
func (s *scriptedSub) Broadcast(core.Value) error      { return nil }
func (s *scriptedSub) Recv() (msgnet.Envelope, error) {
	env, _, err := s.RecvTimeout(s.clock)
	return env, err
}
func (s *scriptedSub) RecvTimeout(deadline int) (msgnet.Envelope, bool, error) {
	if env := s.next; env != nil {
		s.next = nil
		return *env, true, nil
	}
	s.clock = deadline
	return msgnet.Envelope{}, false, nil
}

// TestUnobservedLinkBuildsNoEventFields: with no Observer, a retransmission
// allocates nothing (it resends the frame boxed at the first transmission)
// and neither does a duplicate suppression (its re-ack was boxed for the
// first copy): no field map is built for an event nobody receives.
func TestUnobservedLinkBuildsNoEventFields(t *testing.T) {
	sub := &scriptedSub{}
	l := New(sub, Config{RetransmitAfter: 8, RetransmitCap: 8, MaxAttempts: -1})
	if err := l.Send(1, "never acked"); err != nil {
		t.Fatal(err)
	}
	// Each window of 8 ticks ends on the frame's timer: one retransmission.
	allocs := testing.AllocsPerRun(100, func() {
		if _, got, err := l.RecvTimeout(sub.clock + 8); got || err != nil {
			t.Fatalf("got=%v err=%v", got, err)
		}
	})
	if st := l.Stats(); st.Retransmissions < 100 || allocs != 0 {
		t.Fatalf("%d retransmissions at %.1f allocs each, want 0", st.Retransmissions, allocs)
	}

	sub = &scriptedSub{}
	l = New(sub, Config{})
	data := msgnet.Envelope{From: 1, To: 0, Payload: frame{Seq: 0, Inc: 1, App: "once"}}
	sub.next = &data
	if _, got, err := l.RecvTimeout(1); !got || err != nil {
		t.Fatalf("fresh frame: got=%v err=%v", got, err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		sub.next = &data
		if _, got, err := l.RecvTimeout(sub.clock + 1); got || err != nil {
			t.Fatalf("duplicate frame: got=%v err=%v", got, err)
		}
	})
	if st := l.Stats(); st.DupFramesReceived < 100 || allocs != 0 {
		t.Fatalf("%d duplicates suppressed at %.1f allocs each, want 0", st.DupFramesReceived, allocs)
	}
}
