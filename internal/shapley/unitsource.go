package shapley

import "math/rand"

// unitSource produces exactly the stream of rand.NewSource(seed), but
// seeds in O(1).
//
// rand.NewSource is a lagged-Fibonacci generator over a 607-word
// register: draw d adds tap word (606−d) mod 607 into feed word
// (333−d) mod 607 and returns the sum. Its Seed(s) fills the register
// with word i = (x[21+3i]<<40) ^ (x[22+3i]<<20) ^ x[23+3i] ^ cooked[i],
// where x[k] = s·48271^k mod (2^31−1) is the k-th step of its Lehmer
// seeder. That is 1,841 Lehmer steps per Seed, while a 24-player
// shuffle reads about 46 words. Monte Carlo reseeds once per sampling
// unit, so unitSource computes a word from the power table the first
// time a draw reads it. Draw d is the first read of feed word 333−d for
// d < 334 and of tap word 606−d for d < 273; every later read finds a
// word the feedback has already written, so a draw counter is all the
// bookkeeping the lazy register needs.
type unitSource struct {
	seed      uint64 // Seed's argument reduced as rand's Seed reduces it
	drawn     int    // draws since Seed, counted while words are still unread
	tap, feed int
	vec       [rngLen]int64
}

const (
	rngLen    = 607
	rngTap    = 273
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
)

// unitTab is shared by every unitSource.
var unitTab = newUnitTables()

type unitTables struct {
	// pow[3i+j] = 48271^(21+3i+j) mod (2^31−1): the Lehmer multipliers
	// of register word i.
	pow [3 * rngLen]uint32
	// cooked holds the constants Seed XORs into each word.
	cooked [rngLen]int64
}

// newUnitTables builds the power table and derives the cooked constants
// from rand.NewSource(1)'s first 607 outputs o[d], rather than copying
// math/rand's table. Each seeded word w[p] is the output of the draw
// that first writes it minus the tap word added to it:
//   - words 334..606 are written by draws 940−p, whose taps p−334 were
//     written by draws 667−p;
//   - words 0..60 are written by draws 333−p, whose taps p+273 were
//     written by draws 60−p;
//   - words 61..333 are written by draws 333−p, whose taps p+273 still
//     hold their seeded value.
//
// XORing seed 1's Lehmer terms out of w leaves the cooked constants.
func newUnitTables() *unitTables {
	t := new(unitTables)
	x := uint64(1)
	for k := 1; k <= 20; k++ {
		x = x * lehmerMul % lehmerMod
	}
	for k := range t.pow {
		x = x * lehmerMul % lehmerMod
		t.pow[k] = uint32(x)
	}

	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen]int64
	for d := range o {
		o[d] = int64(src.Uint64())
	}
	w := &t.cooked
	for p := rngLen - rngTap; p < rngLen; p++ {
		w[p] = o[940-p] - o[667-p]
	}
	for p := 0; p <= 60; p++ {
		w[p] = o[333-p] - o[60-p]
	}
	for p := 61; p < rngLen-rngTap; p++ {
		w[p] = o[333-p] - w[p+rngTap]
	}
	for p := range w {
		w[p] ^= t.lehmer(1, p)
	}
	return t
}

// lehmer returns the Lehmer-seeder part of register word i for the
// reduced seed s.
func (t *unitTables) lehmer(s uint64, i int) int64 {
	pw := t.pow[3*i : 3*i+3 : 3*i+3]
	a := s * uint64(pw[0]) % lehmerMod
	b := s * uint64(pw[1]) % lehmerMod
	c := s * uint64(pw[2]) % lehmerMod
	return int64(a<<40 ^ b<<20 ^ c)
}

func newUnitSource(seed int64) *unitSource {
	s := new(unitSource)
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream of rand.NewSource(seed).
func (s *unitSource) Seed(seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.drawn = 0
	s.tap = 0
	s.feed = rngLen - rngTap
}

func (s *unitSource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}

func (s *unitSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < rngLen-rngTap {
		s.vec[s.feed] = unitTab.lehmer(s.seed, s.feed) ^ unitTab.cooked[s.feed]
		if s.drawn < rngTap {
			s.vec[s.tap] = unitTab.lehmer(s.seed, s.tap) ^ unitTab.cooked[s.tap]
		}
		s.drawn++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
