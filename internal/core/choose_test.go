package core_test

import (
	"testing"

	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/swmr"
)

// TestSeededStreamsArePinned pins the first 8 draws of every seeding of
// core.Rand at seeds 1 and 7, recorded before the streams were merged into
// it: the Seeded chooser (msgnet, semisync), the raw stream (faultnet's
// components, chaos and hoalg plans), swmr's chooser and backoff's jitter.
// A reseeding fails here, before any golden downstream of it.
func TestSeededStreamsArePinned(t *testing.T) {
	options := make([]core.PID, 1<<16)
	chooser := func(c core.Chooser) func(int) uint64 {
		return func(step int) uint64 { return uint64(c(step, options)) }
	}
	for _, tc := range []struct {
		name string
		draw func(step int) uint64
		want [8]uint64
	}{
		{"core.Seeded(1)", chooser(core.Seeded(1)),
			[8]uint64{39185, 35395, 35366, 29986, 25596, 13019, 46598, 22741}},
		{"core.Seeded(7)", chooser(core.Seeded(7)),
			[8]uint64{26708, 15575, 24266, 23622, 5114, 26066, 57175, 28464}},
		{"core.NewRand(1)", raw(1),
			[8]uint64{0x806132229cb46b5d, 0x60f1487c439fe10, 0xbfff144d8a4f7aec, 0x6d2eea448b0a2533,
				0x8b58c7f9a2af4ba2, 0x38d265b6aa6cc4ea, 0x426b6c0c24fe1c26, 0xb4aeb1ab8f88a8fb}},
		{"core.NewRand(7)", raw(7),
			[8]uint64{0xbf52d0a8f2c369f1, 0xe7b279ae7ee308fa, 0xbd66bd945b8150a2, 0xbe2b88c2d1a56ad,
				0x3c5a27f59a9ce845, 0x8ba0cba40ff6c0a4, 0x8329beaf164b3b4f, 0xbe0ede612b2128eb}},
		{"swmr.Seeded(1)", chooser(swmr.Seeded(1)),
			[8]uint64{33608, 24654, 46522, 30416, 29314, 60204, 6964, 29146}},
		{"swmr.Seeded(7)", chooser(swmr.Seeded(7)),
			[8]uint64{56733, 17814, 12885, 19718, 57211, 18369, 30252, 11908}},
		{"backoff jitter, seed 1", jitter(1),
			[8]uint64{110710, 694409, 1378494, 1027521, 1186586, 1293529, 1748168, 846207}},
		{"backoff jitter, seed 7", jitter(7),
			[8]uint64{844763, 851110, 1239508, 133954, 1600599, 1495763, 1919181, 95433}},
	} {
		var got [8]uint64
		for i := range got {
			got[i] = tc.draw(i)
		}
		if got != tc.want {
			t.Errorf("%s draws %v, want %v", tc.name, got, tc.want)
		}
	}
}

// raw draws the words of core.NewRand(seed).
func raw(seed int64) func(int) uint64 {
	r := core.NewRand(seed)
	return func(int) uint64 { return r.Next() }
}

// jitter draws backoff intervals on a flat 2^20 ladder spread by the full
// jitter, so each interval is 2^21 times a uniform draw of the stream.
func jitter(seed int64) func(int) uint64 {
	s := backoff.Policy{Initial: 1 << 20, Cap: 1 << 20, Jitter: 1}.Seeded(seed)
	return func(int) uint64 { return uint64(s.Next()) }
}
