package vm

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxPlayers bounds the size of a game so coalitions fit in a uint32
// bitmask with 2^n enumerable subsets. The paper argues n <= 16 in
// practice (one VM per logical core on a 16-core Xeon); we allow headroom.
// VM sets may be larger (up to MaxVMs): their running sets are per-VM
// flags, and only games enumerated or sampled over 2^n coalitions need a
// mask (see RunningCoalition).
const MaxPlayers = 24

// MaxVMs bounds the size of a VM set. Sets past MaxPlayers are estimated
// only by the exact tier, whose work grows with the groups of running VMs
// that share a class and a state rather than with the VMs (dense modern
// hosts run hundreds of VMs drawn from a handful of fixed types).
const MaxVMs = 512

// Coalition is a subset S of the VM set N, encoded as a bitmask where bit
// i set means VM i is a member. The zero value is the empty coalition.
type Coalition uint32

// EmptyCoalition is the coalition with no members.
const EmptyCoalition Coalition = 0

// GrandCoalition returns the coalition containing all n VMs. It panics
// past MaxPlayers, where no mask can hold the set: use per-VM running
// flags there.
func GrandCoalition(n int) Coalition {
	if n > MaxPlayers {
		panic(fmt.Sprintf("vm: GrandCoalition(%d) exceeds the %d-player coalition mask limit", n, MaxPlayers))
	}
	if n <= 0 {
		return 0
	}
	return Coalition(1<<uint(n)) - 1
}

// RunningCoalition returns the running set given as one flag per VM (true
// = running) as a coalition mask, for enumerating or sampling the 2^n game
// over those VMs. It fails past MaxPlayers flags, where no mask can hold
// the set, rather than truncate it.
func RunningCoalition(running []bool) (Coalition, error) {
	if len(running) > MaxPlayers {
		return 0, fmt.Errorf("vm: %d VMs exceed the %d-player coalition mask limit", len(running), MaxPlayers)
	}
	var c Coalition
	for i, r := range running {
		if r {
			c = c.With(ID(i))
		}
	}
	return c, nil
}

// CoalitionOf builds a coalition from member IDs.
func CoalitionOf(ids ...ID) Coalition {
	var c Coalition
	for _, id := range ids {
		c |= 1 << uint(id)
	}
	return c
}

// Contains reports whether VM id is a member of c.
func (c Coalition) Contains(id ID) bool { return c&(1<<uint(id)) != 0 }

// With returns c ∪ {id}.
func (c Coalition) With(id ID) Coalition { return c | 1<<uint(id) }

// Without returns c \ {id}.
func (c Coalition) Without(id ID) Coalition { return c &^ (1 << uint(id)) }

// Size returns |S|, the number of members.
func (c Coalition) Size() int { return bits.OnesCount32(uint32(c)) }

// IsEmpty reports whether c has no members.
func (c Coalition) IsEmpty() bool { return c == 0 }

// Members returns the member IDs in ascending order.
func (c Coalition) Members() []ID {
	out := make([]ID, 0, c.Size())
	for m := uint32(c); m != 0; {
		b := bits.TrailingZeros32(m)
		out = append(out, ID(b))
		m &^= 1 << uint(b)
	}
	return out
}

// SubsetOf reports whether c ⊆ other.
func (c Coalition) SubsetOf(other Coalition) bool { return c&^other == 0 }

// String renders the coalition as {i, j, ...}.
func (c Coalition) String() string {
	ids := c.Members()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// EnumerateSubcoalitions calls fn for every subset of base (including the
// empty set and base itself), using the standard submask-walk trick.
func EnumerateSubcoalitions(base Coalition, fn func(Coalition) bool) {
	sub := base
	for {
		if !fn(sub) {
			return
		}
		if sub == 0 {
			return
		}
		sub = (sub - 1) & base
	}
}
