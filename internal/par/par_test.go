package par

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	all := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ p, want int }{
		{0, 1}, {1, 1}, {2, 2}, {9, 9}, {-1, all}, {-7, all},
	} {
		if got := Workers(tc.p); got != tc.want {
			t.Errorf("Workers(%d) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

// goid returns the calling goroutine's id, parsed from the header
// runtime.Stack writes ("goroutine 7 [running]:").
func goid(t *testing.T) uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		t.Error(err)
	}
	return id
}

// TestFor checks the pool's contract: every index runs exactly once,
// the caller runs at least one of them, and one worker runs them all in
// order on the caller.
func TestFor(t *testing.T) {
	for _, n := range []int{0, 1, 7, 256} {
		for _, workers := range []int{1, 2, 8, Workers(-1)} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				caller := goid(t)
				calls := make([]atomic.Int32, n)
				ranOn := make([]uint64, n)
				var order []int
				For(n, workers, func(i int) {
					calls[i].Add(1)
					ranOn[i] = goid(t)
					if workers == 1 {
						order = append(order, i)
					}
				})
				byCaller := 0
				for i := range calls {
					if c := calls[i].Load(); c != 1 {
						t.Errorf("index %d ran %d times", i, c)
					}
					if ranOn[i] == caller {
						byCaller++
					}
				}
				if n > 0 && byCaller == 0 {
					t.Error("the caller ran no index")
				}
				if workers == 1 {
					if byCaller != n {
						t.Errorf("one worker: the caller ran %d of %d indices", byCaller, n)
					}
					for k, i := range order {
						if i != k {
							t.Fatalf("one worker: call %d ran index %d", k, i)
						}
					}
				}
			})
		}
	}
}
