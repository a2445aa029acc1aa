package core

import (
	"math/bits"
	"strconv"
	"strings"
)

// Set is a set of processes drawn from a universe of n processes, stored as a
// bitset. The zero value is an empty set over an empty universe; use NewSet
// (or SetOf / FullSet) to create sets over a universe of known size.
//
// Mutating methods (Add, Remove) modify the receiver in place; all other
// operations are pure and return fresh sets. Sets over different universe
// sizes must not be combined.
type Set struct {
	words []uint64
	n     int
}

// NewSet returns an empty set over a universe of n processes.
func NewSet(n int) Set {
	return Set{words: make([]uint64, (n+63)/64), n: n}
}

// SetOf returns the set over a universe of n processes containing exactly the
// given members.
func SetOf(n int, members ...PID) Set {
	s := NewSet(n)
	for _, p := range members {
		s.Add(p)
	}
	return s
}

// FullSet returns the set containing every process in a universe of size n.
func FullSet(n int) Set {
	s := NewSet(n)
	s.fill()
	return s
}

// fill makes s its whole universe in place.
func (s *Set) fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := s.n % 64; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (uint64(1) << rem) - 1
	}
}

// wordsPerSet returns the words one set over n processes occupies.
func wordsPerSet(n int) int { return (n + 63) / 64 }

// Carve points every set of every group at its own row of one fresh word
// slab, empty over n processes.
func Carve(n int, groups ...[]Set) {
	w, rows := wordsPerSet(n), 0
	for _, g := range groups {
		rows += len(g)
	}
	slab := make([]uint64, w*rows)
	for _, g := range groups {
		for i := range g {
			g[i], slab = Set{words: slab[:w:w], n: n}, slab[w:]
		}
	}
}

// NewSets returns count empty sets over n processes, the rows of one word
// slab: an oracle's plan rows, carved once and refilled every round.
func NewSets(n, count int) []Set {
	rows := make([]Set, count)
	Carve(n, rows)
	return rows
}

// Universe returns the size n of the universe the set draws from.
func (s Set) Universe() int { return s.n }

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

// Add inserts p into the set. Out-of-range PIDs are ignored.
func (s *Set) Add(p PID) {
	if p < 0 || int(p) >= s.n {
		return
	}
	s.words[p/64] |= 1 << (uint(p) % 64)
}

// Remove deletes p from the set. Out-of-range PIDs are ignored.
func (s *Set) Remove(p PID) {
	if p < 0 || int(p) >= s.n {
		return
	}
	s.words[p/64] &^= 1 << (uint(p) % 64)
}

// Has reports whether p is a member of the set.
func (s Set) Has(p PID) bool {
	if p < 0 || int(p) >= s.n {
		return false
	}
	return s.words[p/64]&(1<<(uint(p)%64)) != 0
}

// Count returns the number of members.
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	r := s.Clone()
	for i := range r.words {
		if i < len(t.words) {
			r.words[i] |= t.words[i]
		}
	}
	return r
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	r := s.Clone()
	for i := range r.words {
		if i < len(t.words) {
			r.words[i] &= t.words[i]
		} else {
			r.words[i] = 0
		}
	}
	return r
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	r := s.Clone()
	for i := range r.words {
		if i < len(t.words) {
			r.words[i] &^= t.words[i]
		}
	}
	return r
}

// CopyFrom overwrites s in place with the members of t. The receiver must
// have been created over the same universe size as t (it reuses its own
// word storage); it is the allocation-free counterpart of t.Clone().
func (s *Set) CopyFrom(t Set) {
	copy(s.words, t.words)
	for i := len(t.words); i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// Clear empties s in place, keeping its universe and its storage.
func (s *Set) Clear() { clear(s.words) }

// UnionInto grows s in place to s ∪ t: the allocation-free counterpart of
// s = s.Union(t).
func (s *Set) UnionInto(t Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] |= t.words[i]
		}
	}
}

// DiffInto shrinks s in place to s \ t: the allocation-free counterpart of
// s = s.Diff(t).
func (s *Set) DiffInto(t Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &^= t.words[i]
		}
	}
}

// IntersectInto shrinks s in place to s ∩ t: the allocation-free
// counterpart of s = s.Intersect(t).
func (s *Set) IntersectInto(t Set) {
	for i := range s.words {
		if i < len(t.words) {
			s.words[i] &= t.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// UnionEquals reports whether s ∪ t = u without materializing the union.
// The engine uses it to check the round invariant S(i,r) ∪ D(i,r) = S on
// its hot path. All three sets must share a universe.
func (s Set) UnionEquals(t, u Set) bool {
	if s.n != u.n || t.n != u.n {
		return false
	}
	for i := range u.words {
		if s.words[i]|t.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// Complement returns the processes of the universe not in s.
func (s Set) Complement() Set {
	return FullSet(s.n).Diff(s)
}

// Equal reports whether s and t have the same members (universes must match
// for two sets to be equal).
func (s Set) Equal(t Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// IsSubset reports whether every member of s is in t.
func (s Set) IsSubset(t Set) bool {
	for i := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if s.words[i]&^tw != 0 {
			return false
		}
	}
	return true
}

// Members returns the members in increasing PID order.
func (s Set) Members() []PID {
	out := make([]PID, 0, s.Count())
	s.ForEach(func(p PID) { out = append(out, p) })
	return out
}

// ForEach calls fn for every member in increasing PID order.
func (s Set) ForEach(fn func(PID)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(PID(wi*64 + b))
			w &^= 1 << uint(b)
		}
	}
}

// String renders the set as "{a,b,c}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(p PID) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(int(p)))
	})
	b.WriteByte('}')
	return b.String()
}

// UnionAll returns the union of the given sets over a universe of size n.
func UnionAll(n int, sets []Set) Set {
	u := NewSet(n)
	for _, s := range sets {
		u = u.Union(s)
	}
	return u
}

// IntersectAll returns the intersection of the given sets over a universe of
// size n. The intersection of zero sets is the full set.
func IntersectAll(n int, sets []Set) Set {
	u := FullSet(n)
	for _, s := range sets {
		u = u.Intersect(s)
	}
	return u
}
