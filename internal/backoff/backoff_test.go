package backoff

import (
	"testing"
	"time"
)

// TestReliablelinkLadder pins the exact interval sequence the reliable
// link has always used (RetransmitAfter 8 doubling to RetransmitCap 128):
// extracting the logic into this package must not move a single step.
func TestReliablelinkLadder(t *testing.T) {
	p := Policy{Initial: 8, Cap: 128}
	want := []int{8, 16, 32, 64, 128, 128, 128}
	s := p.Sequence()
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("Next()[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestDefaults(t *testing.T) {
	var p Policy // all zero: initial 1, factor 2, no cap
	want := []int{1, 2, 4, 8, 16}
	s := p.Sequence()
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("zero policy Next()[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestReset(t *testing.T) {
	s := Policy{Initial: 3, Cap: 24}.Sequence()
	s.Next()
	s.Next()
	s.Reset()
	if got := s.Next(); got != 3 {
		t.Fatalf("after Reset, Next() = %d, want 3", got)
	}
}

func TestOverflowSaturates(t *testing.T) {
	p := Policy{Initial: maxInt/2 + 1} // uncapped: doubling would overflow
	s := p.Sequence()
	s.Next()
	if got := s.Next(); got != maxInt {
		t.Fatalf("overflowed interval = %d, want maxInt", got)
	}
}

// TestSeededJitter checks determinism (same seed, same intervals), spread
// (intervals stay inside the jitter band) and that distinct seeds diverge.
func TestSeededJitter(t *testing.T) {
	p := Policy{Initial: 100, Cap: 1600, Jitter: 0.2}
	a, b := p.Seeded(7), p.Seeded(7)
	other, ladder := p.Seeded(8), p.Sequence()
	diverged := false
	for i := 0; i < 20; i++ {
		exact := ladder.Next()
		av, bv := a.Next(), b.Next()
		if av != bv {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, av, bv)
		}
		lo := int(float64(exact) * 0.8)
		hi := int(float64(exact)*1.2) + 1
		if av < lo || av > hi {
			t.Fatalf("jittered interval %d outside [%d, %d] at attempt %d", av, lo, hi, i)
		}
		if other.Next() != av {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 produced identical jitter streams")
	}
}

func TestUnseededIgnoresJitter(t *testing.T) {
	p := Policy{Initial: 10, Cap: 80, Jitter: 0.5}
	s := p.Sequence()
	for i, want := range []int{10, 20, 40, 80, 80, 80} {
		if got := s.Next(); got != want {
			t.Fatalf("unseeded Next()[%d] = %d, want exact %d", i, got, want)
		}
	}
}

func TestNextDuration(t *testing.T) {
	s := Policy{Initial: 2, Cap: 8}.Sequence()
	if got := s.NextDuration(25 * time.Millisecond); got != 50*time.Millisecond {
		t.Fatalf("NextDuration = %v, want 50ms", got)
	}
}

func TestJitterClamped(t *testing.T) {
	if (Policy{Jitter: -1}).jitter() != 0 {
		t.Error("negative jitter not clamped to 0")
	}
	if (Policy{Jitter: 3}).jitter() != 1 {
		t.Error("jitter > 1 not clamped to 1")
	}
	// A fully jittered interval can reach 0; it must clamp to 1.
	s := Policy{Initial: 1, Cap: 2, Jitter: 1}.Seeded(3)
	for i := 0; i < 50; i++ {
		if got := s.Next(); got < 1 {
			t.Fatalf("jittered interval %d < 1", got)
		}
	}
}
