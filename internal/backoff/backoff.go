// Package backoff is the one capped-exponential-backoff implementation
// shared by every layer that retries: reliablelink retransmits on the
// virtual step clock with it, and netsub redials real TCP connections on
// the wall clock with it. Intervals are plain ints in caller-chosen units
// (scheduler steps, milliseconds, ...), so the same policy drives both
// substrates; optional jitter is seeded and deterministic, never drawn
// from global randomness, so executions replay exactly.
package backoff

import "time"

// Policy describes a capped exponential ladder: Initial, Initial*Factor,
// Initial*Factor², ... bounded above by Cap.
type Policy struct {
	// Initial is the first interval; values < 1 are treated as 1.
	Initial int

	// Cap bounds the interval; 0 means no cap.
	Cap int

	// Factor is the per-step multiplier; values < 2 are treated as 2.
	Factor int

	// Jitter spreads each interval uniformly over
	// [interval*(1-Jitter), interval*(1+Jitter)] when a sequence is
	// seeded; 0 (or an unseeded sequence) keeps the ladder exact.
	// Values are clamped to [0, 1].
	Jitter float64
}

func (p Policy) initial() int {
	if p.Initial < 1 {
		return 1
	}
	return p.Initial
}

func (p Policy) factor() int {
	if p.Factor < 2 {
		return 2
	}
	return p.Factor
}

func (p Policy) jitter() float64 {
	switch {
	case p.Jitter < 0:
		return 0
	case p.Jitter > 1:
		return 1
	default:
		return p.Jitter
	}
}

const maxInt = int(^uint(0) >> 1)

// Seq walks a policy's ladder statefully: each Next returns the current
// interval and doubles (Factor-multiplies) it up to the cap. The zero
// value is not usable; call Policy.Sequence or Policy.Seeded.
type Seq struct {
	p       Policy
	current int
	rng     uint64 // 0 when unseeded: no jitter
}

// Sequence starts an exact (jitter-free) walk of the ladder.
func (p Policy) Sequence() *Seq {
	return &Seq{p: p, current: p.initial()}
}

// Seeded starts a deterministic jittered walk: each interval is spread by
// Policy.Jitter using a private xorshift stream derived from seed, so two
// sequences with the same seed produce identical intervals.
func (p Policy) Seeded(seed int64) *Seq {
	return &Seq{p: p, current: p.initial(), rng: uint64(seed)*0x9E3779B97F4A7C15 | 1}
}

// Next returns the interval to wait before the next retry and advances
// the ladder. Without jitter the returned values are exactly
// Initial, Initial*Factor, Initial*Factor², ... capped.
func (s *Seq) Next() int {
	iv := s.current
	next := iv * s.p.factor()
	if (s.p.Cap > 0 && next > s.p.Cap) || next < iv {
		next = s.p.Cap
		if next <= 0 || next < iv {
			next = maxInt
		}
	}
	s.current = next
	if j := s.p.jitter(); j > 0 && s.rng != 0 {
		// xorshift64*; the top 53 bits give a uniform float in [0, 1).
		s.rng ^= s.rng >> 12
		s.rng ^= s.rng << 25
		s.rng ^= s.rng >> 27
		u := float64(s.rng*2685821657736338717>>11) / (1 << 53)
		spread := float64(iv) * j
		iv = int(float64(iv) - spread + 2*spread*u)
		if iv < 1 {
			iv = 1
		}
	}
	return iv
}

// Reset rewinds the ladder to Initial (the jitter stream keeps advancing,
// as reusing it would correlate retry storms across resets).
func (s *Seq) Reset() { s.current = s.p.initial() }

// NextDuration is Next scaled by unit — the wall-clock flavour used for
// redial delays (e.g. unit = 25*time.Millisecond).
func (s *Seq) NextDuration(unit time.Duration) time.Duration {
	return time.Duration(s.Next()) * unit
}
