package core

import "testing"

func TestSetBankRowsAreIndependent(t *testing.T) {
	const n, count = 70, 5 // two words per row
	b := NewSetBank(n, count)
	b.Add(0, 0)
	b.Add(0, 69)
	b.Add(3, 64)
	if !b.Has(0, 0) || !b.Has(0, 69) || !b.Has(3, 64) {
		t.Fatalf("added members missing")
	}
	for i := 0; i < count; i++ {
		want := 0
		if i == 0 {
			want = 2
		} else if i == 3 {
			want = 1
		}
		if got := b.Row(i).Count(); got != want {
			t.Fatalf("row %d count = %d, want %d", i, got, want)
		}
	}
	// Out-of-range PIDs are ignored, like Set.Add.
	b.Add(1, -1)
	b.Add(1, PID(n))
	if !b.Row(1).Empty() {
		t.Fatalf("out-of-range add mutated row 1")
	}
}

func TestSetBankRowViewAliasesSlab(t *testing.T) {
	b := NewSetBank(16, 4)
	v := b.Row(2)
	v.Add(7)
	if !b.Has(2, 7) {
		t.Fatalf("mutation through the row view did not reach the bank")
	}
	// Views support the full in-place Set algebra without allocating.
	u := b.Row(3)
	u.CopyFrom(SetOf(16, 1, 7, 9))
	u.IntersectInto(SetOf(16, 7, 9, 11))
	if u.Count() != 2 || !b.Has(3, 7) || !b.Has(3, 9) || b.Has(3, 1) {
		t.Fatalf("in-place algebra through view: row = %s", b.Row(3))
	}
}

func TestSetBankClear(t *testing.T) {
	b := NewSetBank(8, 6)
	for i := 0; i < 6; i++ {
		b.Add(i, PID(i%8))
	}
	b.Clear(2)
	if !b.Row(2).Empty() || b.Row(1).Empty() || b.Row(3).Empty() {
		t.Fatalf("Clear(2) cleared the wrong rows")
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

func TestArenaReuseAfterReset(t *testing.T) {
	var a Arena
	first := a.Uint64s(100)
	second := a.Uint64s(200)
	if len(first) != 100 || len(second) != 200 {
		t.Fatalf("lengths: %d %d", len(first), len(second))
	}
	first[0], second[0] = 7, 9
	a.Reset()
	// The same request pattern after Reset reuses the same blocks — and
	// hands back zeroed memory even though the block bytes were dirtied.
	again := a.Uint64s(100)
	if &again[0] != &first[0] {
		t.Fatalf("Reset did not recycle the first block")
	}
	if again[0] != 0 {
		t.Fatalf("recycled slab not zeroed: %d", again[0])
	}
}

func TestArenaLargeRequestGetsOwnBlock(t *testing.T) {
	var a Arena
	small := a.Uint64s(8)
	big := a.Uint64s(1 << 16) // larger than the default growth step
	if len(big) != 1<<16 {
		t.Fatalf("big block length %d", len(big))
	}
	small[0] = 1
	big[0] = 2
	if small[0] != 1 {
		t.Fatalf("blocks overlap")
	}
	if a.Uint64s(0) != nil {
		t.Fatalf("zero-length request should be nil")
	}
}

func TestArenaSteadyStateAllocFree(t *testing.T) {
	var a Arena
	warm := func() {
		a.Reset()
		_ = a.Uint64s(500)
		_ = a.Uint64s(300)
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs != 0 {
		t.Fatalf("steady-state arena cycle allocates %v times", allocs)
	}
}
