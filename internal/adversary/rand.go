package adversary

import "math/rand"

// newRand returns rand.New(rand.NewSource(seed))'s exact stream. Every
// sampled table and golden of the paper's reproduction is fixed by that
// stream, so the stream cannot change; what changes is what seeding costs.
// math/rand's Seed fills its 607-word register by 1 881 chained Lehmer
// steps, each with an int32 division; this source fills it in closed form,
// each step an independent multiply by a precomputed power and a Mersenne
// fold, and only at the 274th draw: the first 273 draws read seeded words
// alone, so a short sampler has no register at all (DESIGN §11 "Seeded
// samplers").
func newRand(seed int64) *rand.Rand {
	s := new(source)
	s.Seed(seed)
	return rand.New(s)
}

// The register of math/rand's additive lagged-Fibonacci generator (Mitchell
// and Reeds): x[n] = x[n-607] + x[n-273] mod 2⁶⁴, seeded by a Lehmer
// generator x_{j+1} = 48271·x_j mod (2³¹−1).
const (
	regLen   = 607
	regTap   = 273
	lehmerP  = 1<<31 - 1
	lehmerA  = 48271
	seedSkip = 20 // Lehmer steps Seed discards before word 0
)

// source is a rand.Source64 with math/rand's stream: rngSource with a
// closed-form Seed and a register built on demand. Draw j ≤ regTap adds
// feed word 334−j to tap word 607−j, neither written yet, so it is two
// seeded words in closed form; draw regTap+1 reads the sum draw 1 wrote, and
// fill builds the register first.
type source struct {
	seed      uint64          // the normalized seed
	drawn     int             // draws taken, counted through regTap+1
	vec       *[regLen]uint64 // the register, live once drawn > regTap
	tap, feed int
}

// lehmerPow[i] holds 48271^(21+3i), 48271^(22+3i) and 48271^(23+3i) mod
// 2³¹−1: word i's three Lehmer values are the seed times these, mod 2³¹−1
// (Seed discards the first 20 steps).
var lehmerPow [regLen][3]uint64

// cooked is math/rand's table of per-word constants that Seed XORs into the
// Lehmer bits. It is not copied: init reads it back out of the first 607
// draws of one math/rand source (see recoverCooked).
var cooked [regLen]uint64

func init() {
	x := uint64(1)
	for range seedSkip {
		x = mulMod(x, lehmerA)
	}
	for i := range lehmerPow {
		for k := range lehmerPow[i] {
			x = mulMod(x, lehmerA)
			lehmerPow[i][k] = x
		}
	}
	cooked = recoverCooked(rand.NewSource(1).(rand.Source64), 1)
}

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2] by the Mersenne
// reduction. Two folds leave a value in [0, 2³¹−1] congruent to a·b, and
// neither end is possible: 2³¹−1 is prime, so a·b is not a multiple of it.
// Every caller passes a normalized seed or a power of 48271.
func mulMod(a, b uint64) uint64 {
	v := a * b
	v = v&lehmerP + v>>31
	return v&lehmerP + v>>31
}

// lehmerWord returns word i's three consecutive Lehmer values from the
// normalized seed, packed: the seeded word before its cooked XOR.
func lehmerWord(seed uint64, i int) uint64 {
	p := &lehmerPow[i]
	return mulMod(seed, p[0])<<40 ^ mulMod(seed, p[1])<<20 ^ mulMod(seed, p[2])
}

// seedRegister sets v to the register seeded with the normalized seed: word
// i is lehmerWord XORed with mask[i] (cooked, or a register whose cooked
// words are wanted).
func seedRegister(v *[regLen]uint64, seed uint64, mask *[regLen]uint64) {
	for i := range v {
		v[i] = lehmerWord(seed, i) ^ mask[i]
	}
}

// recoverCooked inverts the first 607 draws of src, freshly seeded with the
// normalized seed, into the seeded register w and returns w XOR the packed
// Lehmer values. With o_k the k-th draw:
//   - draws 274…334 add a feed word to the sum draw k−273 wrote: word
//     334−k = o_k − o_{k−273}, words 0…60;
//   - draws 335…607 do the same with feed words 606…334: word 941−k =
//     o_k − o_{k−273};
//   - draws 1…273 add two seeded words, the tap one now known: word 334−k =
//     o_k − w[607−k], words 61…333.
func recoverCooked(src rand.Source64, seed uint64) [regLen]uint64 {
	var o [regLen + 1]uint64
	for k := 1; k <= regLen; k++ {
		o[k] = src.Uint64()
	}
	var w [regLen]uint64
	for k := regTap + 1; k <= regLen; k++ {
		w[(regLen-regTap-k+regLen)%regLen] = o[k] - o[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		w[regLen-regTap-k] = o[k] - w[regLen-k]
	}
	var c [regLen]uint64
	seedRegister(&c, seed, &w)
	return c
}

// word returns seeded word i of the register in closed form.
func (s *source) word(i int) uint64 { return lehmerWord(s.seed, i) ^ cooked[i] }

// Seed is rngSource.Seed, deferred: it normalizes the seed and starts the
// stream over, keeping any register it has for the next fill.
func (s *source) Seed(seed int64) {
	seed %= lehmerP
	if seed < 0 {
		seed += lehmerP
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed, s.drawn = uint64(seed), 0
}

// fill builds the register as rngSource has it after regTap draws: seeded,
// each draw's sum written back to its feed word.
func (s *source) fill() {
	if s.vec == nil {
		s.vec = new([regLen]uint64)
	}
	seedRegister(s.vec, s.seed, &cooked)
	for j := 1; j <= regTap; j++ {
		s.vec[regLen-regTap-j] += s.vec[regLen-j]
	}
	s.tap, s.feed = regLen-regTap, regLen-2*regTap
}

// Uint64 is rngSource.Uint64.
func (s *source) Uint64() uint64 {
	if s.drawn <= regTap {
		if s.drawn++; s.drawn <= regTap {
			return s.word(regLen-regTap-s.drawn) + s.word(regLen-s.drawn)
		}
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 is rngSource.Int63: the draw with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
