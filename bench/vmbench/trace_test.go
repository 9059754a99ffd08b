package main

import (
	"testing"
	"time"
)

// TestSelfTimeSubtractsCoveredChildren checks that a span's self time
// is its duration minus the union of its children, clipped to it.
func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	b := newSpanBuf(t0, 0)
	root := b.add("step", at(0), at(100), -1, 1)
	b.add("a", at(10), at(30), root, 1)
	b.add("b", at(20), at(50), root, 1)  // overlaps a: [10,50] counts once
	b.add("c", at(90), at(120), root, 1) // runs past the parent: clipped to [90,100]

	other := newSpanBuf(t0, 0)
	p := other.add("step", at(200), at(260), -1, 2)
	other.add("a", at(200), at(220), p, 2)
	b.merge(other)

	self := selfTimes(b.spans)
	want := map[string][]float64{"step": {50, 40}, "a": {20, 20}, "b": {30}, "c": {30}}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: got %v, want %v", name, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s[%d]: self time %g µs, want %g", name, i, got[i], w[i])
			}
		}
	}
	if b.spans[5].Parent != 4 {
		t.Errorf("merged child parent = %d, want 4 (re-indexed)", b.spans[5].Parent)
	}
}
