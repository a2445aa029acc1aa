package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet(10)
	if !s.Empty() {
		t.Fatal("new set should be empty")
	}
	s.Add(3)
	s.Add(7)
	s.Add(3)
	if got := s.Count(); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	if !s.Has(3) || !s.Has(7) || s.Has(4) {
		t.Fatalf("membership wrong: %s", s)
	}
	s.Remove(3)
	if s.Has(3) {
		t.Fatal("Remove(3) did not remove")
	}
	if got := s.String(); got != "{7}" {
		t.Fatalf("String = %q, want {7}", got)
	}
}

func TestSetOutOfRange(t *testing.T) {
	s := NewSet(5)
	s.Add(-1)
	s.Add(5)
	s.Add(100)
	if !s.Empty() {
		t.Fatalf("out-of-range adds should be ignored, got %s", s)
	}
	if s.Has(-1) || s.Has(5) {
		t.Fatal("out-of-range Has should be false")
	}
	s.Remove(99) // must not panic
}

func TestFullSet(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 128, 130} {
		f := FullSet(n)
		if got := f.Count(); got != n {
			t.Fatalf("FullSet(%d).Count = %d", n, got)
		}
		if !f.Has(PID(n - 1)) {
			t.Fatalf("FullSet(%d) missing last element", n)
		}
		if f.Has(PID(n)) {
			t.Fatalf("FullSet(%d) contains %d", n, n)
		}
		if !f.Complement().Empty() {
			t.Fatalf("FullSet(%d).Complement not empty", n)
		}
	}
}

func TestSetOps(t *testing.T) {
	a := SetOf(8, 0, 1, 2)
	b := SetOf(8, 2, 3)
	tests := []struct {
		name string
		got  Set
		want Set
	}{
		{"union", a.Union(b), SetOf(8, 0, 1, 2, 3)},
		{"intersect", a.Intersect(b), SetOf(8, 2)},
		{"diff", a.Diff(b), SetOf(8, 0, 1)},
		{"complement", a.Complement(), SetOf(8, 3, 4, 5, 6, 7)},
	}
	for _, tt := range tests {
		if !tt.got.Equal(tt.want) {
			t.Errorf("%s = %s, want %s", tt.name, tt.got, tt.want)
		}
	}
	if !a.Intersect(b).IsSubset(a) || !a.Intersect(b).IsSubset(b) {
		t.Error("intersection not a subset of operands")
	}
	if a.IsSubset(b) {
		t.Error("a should not be subset of b")
	}
	if !SetOf(8).IsSubset(a) {
		t.Error("empty set must be subset of everything")
	}
}

func TestSetOpsDoNotMutate(t *testing.T) {
	a := SetOf(8, 0, 1)
	b := SetOf(8, 1, 2)
	_ = a.Union(b)
	_ = a.Intersect(b)
	_ = a.Diff(b)
	_ = a.Complement()
	if !a.Equal(SetOf(8, 0, 1)) || !b.Equal(SetOf(8, 1, 2)) {
		t.Fatal("pure set operations mutated an operand")
	}
	c := a.Clone()
	c.Add(5)
	if a.Has(5) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSetMembersAndForEach(t *testing.T) {
	s := SetOf(70, 0, 63, 64, 69)
	want := []PID{0, 63, 64, 69}
	got := s.Members()
	if len(got) != len(want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members = %v, want %v", got, want)
		}
	}
}

func TestUnionAllIntersectAll(t *testing.T) {
	sets := []Set{SetOf(6, 0, 1), SetOf(6, 1, 2), SetOf(6, 1, 5)}
	if got := UnionAll(6, sets); !got.Equal(SetOf(6, 0, 1, 2, 5)) {
		t.Errorf("UnionAll = %s", got)
	}
	if got := IntersectAll(6, sets); !got.Equal(SetOf(6, 1)) {
		t.Errorf("IntersectAll = %s", got)
	}
	if got := IntersectAll(6, nil); !got.Equal(FullSet(6)) {
		t.Errorf("IntersectAll(nil) = %s, want full set", got)
	}
	if got := UnionAll(6, nil); !got.Empty() {
		t.Errorf("UnionAll(nil) = %s, want empty", got)
	}
}

// randomSet builds a pseudo-random set over n elements from raw bits.
func randomSet(n int, r *rand.Rand) Set {
	s := NewSet(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 1 {
			s.Add(PID(i))
		}
	}
	return s
}

func TestSetAlgebraProperties(t *testing.T) {
	const n = 97 // force multi-word sets
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a, b, c := randomSet(n, r), randomSet(n, r), randomSet(n, r)

		if !a.Union(b).Equal(b.Union(a)) {
			t.Fatal("union not commutative")
		}
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			t.Fatal("intersect not commutative")
		}
		if !a.Union(b.Union(c)).Equal(a.Union(b).Union(c)) {
			t.Fatal("union not associative")
		}
		if !a.Intersect(b.Union(c)).Equal(a.Intersect(b).Union(a.Intersect(c))) {
			t.Fatal("distributivity failed")
		}
		// De Morgan.
		if !a.Union(b).Complement().Equal(a.Complement().Intersect(b.Complement())) {
			t.Fatal("De Morgan failed")
		}
		// |A ∪ B| = |A| + |B| − |A ∩ B|.
		if a.Union(b).Count() != a.Count()+b.Count()-a.Intersect(b).Count() {
			t.Fatal("inclusion-exclusion failed")
		}
		// A \ B = A ∩ Bᶜ.
		if !a.Diff(b).Equal(a.Intersect(b.Complement())) {
			t.Fatal("difference identity failed")
		}
		// Subset consistency.
		if got := a.Intersect(b).Equal(a); got != a.IsSubset(b) {
			t.Fatal("IsSubset inconsistent with intersection")
		}
	}
}

// TestSetQuickRoundTrip is a testing/quick property: adding the members of a
// set to a fresh set reproduces the set, for arbitrary bit patterns.
func TestSetQuickRoundTrip(t *testing.T) {
	prop := func(bitsLow, bitsHigh uint64) bool {
		s := NewSet(128)
		s.words[0], s.words[1] = bitsLow, bitsHigh
		rebuilt := SetOf(128, s.Members()...)
		return rebuilt.Equal(s) && rebuilt.Count() == s.Count()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSetQuickComplementInvolution: complement is an involution and
// partitions the universe, for arbitrary bit patterns.
func TestSetQuickComplementInvolution(t *testing.T) {
	prop := func(w0, w1 uint64, nSmall uint8) bool {
		n := int(nSmall%120) + 8
		s := NewSet(128)
		s.words[0], s.words[1] = w0, w1
		// Project into a universe of size n.
		proj := NewSet(n)
		s.ForEach(func(p PID) { proj.Add(p) })
		c := proj.Complement()
		return c.Complement().Equal(proj) &&
			proj.Intersect(c).Empty() &&
			proj.Union(c).Equal(FullSet(n))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetInPlaceOps(t *testing.T) {
	// The in-place operations must agree with their pure counterparts on
	// random sets over universes straddling word boundaries.
	for _, n := range []int{1, 7, 64, 65, 130} {
		rng := rand.New(rand.NewSource(int64(n)))
		for iter := 0; iter < 50; iter++ {
			a, b := NewSet(n), NewSet(n)
			for p := 0; p < n; p++ {
				if rng.Intn(2) == 0 {
					a.Add(PID(p))
				}
				if rng.Intn(2) == 0 {
					b.Add(PID(p))
				}
			}

			got := NewSet(n)
			got.CopyFrom(a)
			if !got.Equal(a) {
				t.Fatalf("n=%d: CopyFrom: got %s want %s", n, got, a)
			}
			// CopyFrom must clear previous contents, not merge.
			got.CopyFrom(b)
			if !got.Equal(b) {
				t.Fatalf("n=%d: CopyFrom did not overwrite: got %s want %s", n, got, b)
			}

			u := a.Clone()
			u.UnionInto(b)
			if want := a.Union(b); !u.Equal(want) {
				t.Fatalf("n=%d: UnionInto: got %s want %s", n, u, want)
			}

			d := a.Clone()
			d.DiffInto(b)
			if want := a.Diff(b); !d.Equal(want) {
				t.Fatalf("n=%d: DiffInto: got %s want %s", n, d, want)
			}

			full := FullSet(n)
			if got, want := a.UnionEquals(b, full), a.Union(b).Equal(full); got != want {
				t.Fatalf("n=%d: UnionEquals(full) = %v, Union.Equal = %v (a=%s b=%s)", n, got, want, a, b)
			}
			if got, want := a.UnionEquals(b, b), a.Union(b).Equal(b); got != want {
				t.Fatalf("n=%d: UnionEquals(b) = %v, Union.Equal = %v (a=%s b=%s)", n, got, want, a, b)
			}
		}
	}
}

func TestSetInPlaceOpsDoNotTouchOperand(t *testing.T) {
	a := SetOf(70, 1, 64, 69)
	b := SetOf(70, 1, 5, 64)
	bBefore := b.Clone()
	x := a.Clone()
	x.UnionInto(b)
	x.CopyFrom(a)
	x.DiffInto(b)
	if !b.Equal(bBefore) {
		t.Fatalf("operand mutated: %s -> %s", bBefore, b)
	}
}

func TestUnionEqualsMismatchedUniverse(t *testing.T) {
	if SetOf(4, 0).UnionEquals(SetOf(4, 1), FullSet(5)) {
		t.Fatal("mismatched universes reported equal")
	}
}

func TestIntersectInto(t *testing.T) {
	s := SetOf(100, 1, 50, 99)
	s.IntersectInto(SetOf(100, 50, 99, 3))
	if s.Count() != 2 || !s.Has(50) || !s.Has(99) {
		t.Fatalf("IntersectInto: got %s", s)
	}
	// Shorter universe on the right zeroes the uncovered words.
	w := SetOf(130, 1, 128)
	w.IntersectInto(SetOf(64, 1))
	if w.Count() != 1 || !w.Has(1) {
		t.Fatalf("IntersectInto across widths: got %s", w)
	}
}
