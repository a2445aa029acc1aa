package adversary

import (
	"math"
	"math/rand"
	"testing"
)

// TestSeededStreamIsMathRand holds newRand to math/rand's stream draw for
// draw, through every method the samplers call, at the seeds where Seed's
// normalization turns: 0 and ±(2³¹−1) map to the same fixed seed, 2³¹−2 is
// the largest normalized seed, and the int64 extremes wrap. A used source,
// re-seeded, must start the stream over.
func TestSeededStreamIsMathRand(t *testing.T) {
	const draws = 2000
	seeds := []int64{0, 1, -1, 1<<31 - 2, 1<<31 - 1, -(1<<31 - 1), 1 << 31, math.MinInt64, math.MaxInt64, 20260418}
	same := func(seed int64, got, want *rand.Rand) {
		t.Helper()
		for i := 0; i < draws; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 draw %d = %d, want %d", seed, i, g, w)
			}
		}
		for i := 0; i < draws; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %d, want %d", seed, i, g, w)
			}
		}
		for i := 0; i < draws; i++ {
			n := 1 + i%97
			if i%5 == 0 {
				n = 1<<40 + i // Intn's 63-bit path
			}
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d: Intn(%d) draw %d = %d, want %d", seed, n, i, g, w)
			}
		}
		for i := 0; i < draws; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, want %v", seed, i, g, w)
			}
		}
		a, b := make([]int, 16), make([]int, 16)
		for i := range a {
			a[i], b[i] = i, i
		}
		for i := 0; i < draws; i++ {
			got.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			for x := range a {
				if a[x] != b[x] {
					t.Fatalf("seed %d: Shuffle %d = %v, want %v", seed, i, a, b)
				}
			}
		}
	}
	for _, seed := range seeds {
		same(seed, newRand(seed), rand.New(rand.NewSource(seed)))
	}
	// Re-seeding a source deep in its stream, and again after one draw,
	// starts over from the new seed alone.
	got := newRand(7)
	same(7, got, rand.New(rand.NewSource(7)))
	for _, seed := range []int64{seeds[3], 42} {
		got.Seed(seed)
		got.Int63()
		got.Seed(seed)
		same(seed, got, rand.New(rand.NewSource(seed)))
	}
}

// BenchmarkNewRand prices a short sampler's generator: the seeding and one
// draw. math/rand's own seeding of the same stream is ≈ 13 µs.
func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newRand(int64(i)).Intn(8)
	}
}
