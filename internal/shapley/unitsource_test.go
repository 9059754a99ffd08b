package shapley

import (
	"math"
	"math/rand"
	"testing"
)

// checkUnitStream compares unitSource with rand.NewSource(seed) over
// draws calls, interleaving Uint64 and Int63 the way a caller mixing
// rand.Rand methods would.
func checkUnitStream(t *testing.T, src *unitSource, seed int64, draws int) {
	t.Helper()
	src.Seed(seed)
	want := rand.NewSource(seed).(rand.Source64)
	for d := 0; d < draws; d++ {
		if d%3 == 2 {
			if got, exp := src.Int63(), want.Int63(); got != exp {
				t.Fatalf("seed %d draw %d: Int63 %#x, rand.NewSource %#x", seed, d, got, exp)
			}
			continue
		}
		if got, exp := src.Uint64(), want.Uint64(); got != exp {
			t.Fatalf("seed %d draw %d: Uint64 %#x, rand.NewSource %#x", seed, d, got, exp)
		}
	}
}

// TestUnitSourceMatchesRandNewSource pins the O(1)-seeded source to the
// stdlib stream past the register length, where draws re-read words the
// feedback has written. One source is reseeded across all seeds, as a
// Monte-Carlo worker reseeds its own.
func TestUnitSourceMatchesRandNewSource(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 89482311, -89482311,
		lehmerMod, -lehmerMod, 2 * lehmerMod, lehmerMod - 1, lehmerMod + 1,
		math.MinInt64, math.MaxInt64,
	}
	for _, s := range []int64{0, 1, 9, -3, 1 << 40} {
		for _, k := range []int{0, 1, 2, 63, 128, 199, 255} {
			seeds = append(seeds, unitSeed(s, k))
		}
	}
	src := newUnitSource(0)
	for _, seed := range seeds {
		checkUnitStream(t, src, seed, 2000)
	}
}

func FuzzUnitSource(f *testing.F) {
	f.Add(int64(0), uint16(700))
	f.Add(int64(lehmerMod), uint16(2000))
	f.Add(int64(math.MinInt64), uint16(1300))
	f.Add(unitSeed(1, 0), uint16(46))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkUnitStream(t, new(unitSource), seed, int(draws))
	})
}
