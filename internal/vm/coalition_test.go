package vm

import (
	"testing"
	"testing/quick"
)

func TestGrandCoalition(t *testing.T) {
	if GrandCoalition(0) != 0 {
		t.Fatal("grand of 0 players must be empty")
	}
	if GrandCoalition(-1) != 0 {
		t.Fatal("grand of negative players must be empty")
	}
	g := GrandCoalition(3)
	if g.Size() != 3 || !g.Contains(0) || !g.Contains(2) || g.Contains(3) {
		t.Fatalf("GrandCoalition(3) = %s", g)
	}
	if g := GrandCoalition(MaxPlayers); g.Size() != MaxPlayers || g.Contains(MaxPlayers) {
		t.Fatalf("GrandCoalition(%d) = %s", MaxPlayers, g)
	}
}

// TestGrandCoalitionPanicsPastMaskLimit pins the mask limit: past
// MaxPlayers VMs, including widths whose uint32 shift would wrap to a
// 32-VM mask, GrandCoalition panics instead of returning a mask that
// leaves VMs out.
func TestGrandCoalitionPanicsPastMaskLimit(t *testing.T) {
	for _, n := range []int{MaxPlayers + 1, 33, 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("GrandCoalition(%d) did not panic", n)
				}
			}()
			GrandCoalition(n)
		}()
	}
}

// TestRunningCoalition pins the one mask builder for running sets: flags
// map to their bits, and past MaxPlayers VMs it fails instead of
// truncating the set.
func TestRunningCoalition(t *testing.T) {
	c, err := RunningCoalition([]bool{true, false, true})
	if err != nil || c != CoalitionOf(0, 2) {
		t.Fatalf("RunningCoalition = %s, %v", c, err)
	}
	full := make([]bool, MaxPlayers)
	for i := range full {
		full[i] = true
	}
	if c, err := RunningCoalition(full); err != nil || c != GrandCoalition(MaxPlayers) {
		t.Fatalf("RunningCoalition(%d running) = %s, %v", MaxPlayers, c, err)
	}
	if _, err := RunningCoalition(make([]bool, MaxPlayers+1)); err == nil {
		t.Fatalf("RunningCoalition of %d flags must fail", MaxPlayers+1)
	}
}

func TestCoalitionOps(t *testing.T) {
	c := CoalitionOf(1, 3)
	if c.Size() != 2 {
		t.Fatalf("Size = %d", c.Size())
	}
	if !c.Contains(1) || c.Contains(0) {
		t.Fatal("Contains wrong")
	}
	c2 := c.With(0)
	if !c2.Contains(0) || c2.Size() != 3 {
		t.Fatal("With broken")
	}
	if c.Contains(0) {
		t.Fatal("With must not mutate the receiver")
	}
	c3 := c2.Without(3)
	if c3.Contains(3) || c3.Size() != 2 {
		t.Fatal("Without broken")
	}
	if !EmptyCoalition.IsEmpty() || c.IsEmpty() {
		t.Fatal("IsEmpty wrong")
	}
	members := c.Members()
	if len(members) != 2 || members[0] != 1 || members[1] != 3 {
		t.Fatalf("Members = %v", members)
	}
	if c.String() != "{1,3}" {
		t.Fatalf("String = %q", c.String())
	}
	if EmptyCoalition.String() != "{}" {
		t.Fatalf("empty String = %q", EmptyCoalition.String())
	}
}

func TestEnumerateSubsets(t *testing.T) {
	var seen []Coalition
	EnumerateSubsets(3, func(c Coalition) bool {
		seen = append(seen, c)
		return true
	})
	if len(seen) != 8 {
		t.Fatalf("enumerated %d subsets, want 8", len(seen))
	}
	if seen[0] != EmptyCoalition || seen[7] != GrandCoalition(3) {
		t.Fatal("enumeration order wrong")
	}

	count := 0
	EnumerateSubsets(3, func(Coalition) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop after %d", count)
	}

	EnumerateSubsets(-1, func(Coalition) bool {
		t.Fatal("negative n must not enumerate")
		return true
	})
	EnumerateSubsets(MaxPlayers+1, func(Coalition) bool {
		t.Fatal("oversize n must not enumerate")
		return true
	})
}

// Property: Members/CoalitionOf round-trip.
func TestCoalitionRoundTripProperty(t *testing.T) {
	f := func(raw uint32) bool {
		c := Coalition(raw & (1<<MaxPlayers - 1))
		return CoalitionOf(c.Members()...) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Size equals the number of members; With/Without invert.
func TestCoalitionWithWithoutProperty(t *testing.T) {
	f := func(raw uint32, idRaw uint8) bool {
		c := Coalition(raw & (1<<MaxPlayers - 1))
		id := ID(int(idRaw) % MaxPlayers)
		if c.Size() != len(c.Members()) {
			return false
		}
		if c.Contains(id) {
			return c.Without(id).With(id) == c
		}
		return c.With(id).Without(id) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// EnumerateSubsets calls fn for every subset of the grand coalition of n
// players, including the empty and grand coalitions (2^n calls).
// Enumeration stops early if fn returns false.
func EnumerateSubsets(n int, fn func(Coalition) bool) {
	if n < 0 || n > MaxPlayers {
		return
	}
	total := Coalition(1) << uint(n)
	for s := Coalition(0); s < total; s++ {
		if !fn(s) {
			return
		}
	}
}
