package serve

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// publishTicks publishes rows[i] as tick i+1 and returns the table.
func publishTicks(rows ...map[string]float64) *Table[string, float64] {
	tb := NewTable[string](Equal[float64])
	for i, r := range rows {
		tb.Publish(i+1, r)
	}
	return tb
}

// TestTableWindow pins the window: the log keeps the last Window ticks,
// a client whose next tick is still logged gets a delta, and one tick
// further behind gets a full resync.
func TestTableWindow(t *testing.T) {
	tb := NewTable[string](Equal[float64])
	last := Window + 10
	var rows map[string]float64
	for tick := 1; tick <= last; tick++ {
		rows = map[string]float64{"a": float64(tick), "b": 1}
		tb.Publish(tick, rows)
	}
	if len(tb.log) != Window || tb.log[0].tick != last-Window+1 {
		t.Fatalf("log holds %d ticks from %d, want %d from %d", len(tb.log), tb.log[0].tick, Window, last-Window+1)
	}
	oldest := last - Window // the oldest since still answered from the log
	up, removed, full := tb.Delta(oldest, last, rows)
	if full || !reflect.DeepEqual(up, map[string]float64{"a": float64(last)}) || removed != nil {
		t.Fatalf("since %d: upserts %v removed %v full %v, want only a", oldest, up, removed, full)
	}
	up, _, full = tb.Delta(oldest-1, last, rows)
	if !full || !reflect.DeepEqual(up, rows) {
		t.Fatalf("since %d (behind the window): upserts %v full %v, want a full resync", oldest-1, up, full)
	}
}

// TestTableDeltaEdges pins the resync and empty cases: a since ahead of
// the served tick (a baseline from an earlier daemon) is a full resync,
// a current client gets an empty non-nil map, and a client one tick
// behind gets exactly that tick's changes.
func TestTableDeltaEdges(t *testing.T) {
	r1 := map[string]float64{"a": 1, "b": 2}
	r2 := map[string]float64{"a": 1, "b": 3}
	tb := publishTicks(r1, r2)
	if up, removed, full := tb.Delta(9, 2, r2); !full || !reflect.DeepEqual(up, r2) || removed != nil {
		t.Fatalf("ahead: upserts %v removed %v full %v, want a full resync", up, removed, full)
	}
	if up, removed, full := tb.Delta(2, 2, r2); full || up == nil || len(up) != 0 || removed != nil {
		t.Fatalf("current: upserts %v removed %v full %v, want an empty delta", up, removed, full)
	}
	if up, _, full := tb.Delta(1, 2, r2); full || !reflect.DeepEqual(up, map[string]float64{"b": 3}) {
		t.Fatalf("one behind: upserts %v full %v, want b only", up, full)
	}
	if up, _, full := tb.Delta(0, 2, r2); full || !reflect.DeepEqual(up, r2) {
		t.Fatalf("since 0 on tick 2: upserts %v full %v, want every key as an upsert", up, full)
	}
}

// TestTableRemovedThenReadded pins resolution by presence: a key that
// left and came back is an upsert, one that left (however often) is one
// removal, and a snapshot older than the log's head reads only the log
// up to its own tick.
func TestTableRemovedThenReadded(t *testing.T) {
	r1 := map[string]float64{"a": 1, "b": 2}
	r2 := map[string]float64{"a": 1}
	r3 := map[string]float64{"a": 1, "b": 2}
	r4 := map[string]float64{"a": 1}
	tb := publishTicks(r1, r2, r3, r4)

	if up, removed, _ := tb.Delta(1, 3, r3); !reflect.DeepEqual(up, map[string]float64{"b": 2}) || removed != nil {
		t.Fatalf("re-added by tick 3: upserts %v removed %v, want b upserted", up, removed)
	}
	if up, removed, _ := tb.Delta(1, 4, r4); len(up) != 0 || !reflect.DeepEqual(removed, []string{"b"}) {
		t.Fatalf("removed again by tick 4: upserts %v removed %v, want b removed once", up, removed)
	}
	if up, removed, _ := tb.Delta(1, 2, r2); len(up) != 0 || !reflect.DeepEqual(removed, []string{"b"}) {
		t.Fatalf("tick 2 snapshot: upserts %v removed %v, want b removed", up, removed)
	}
}

// serveSince runs one ?since= request through ServeDelta.
func serveSince(c *Core, raw string, d *Deltas) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.ServeDelta(rec, raw, d, "nothing yet")
	return rec
}

// TestServeDeltaRejects pins the error answers: 400 for a since that is
// not a non-negative integer, 404 with the daemon's text before the
// first tick.
func TestServeDeltaRejects(t *testing.T) {
	var c Core
	d := NewDeltas(5, func(since int) any { return since })
	for _, raw := range []string{"nope", "-3", "1.5", "0x10"} {
		rec := serveSince(&c, raw, d)
		if rec.Code != http.StatusBadRequest || rec.Body.String() != `{"error":"since must be a non-negative integer"}`+"\n" {
			t.Errorf("since=%s: %d %s, want 400", raw, rec.Code, rec.Body)
		}
	}
	if rec := serveSince(&c, "3", nil); rec.Code != http.StatusNotFound || rec.Body.String() != `{"error":"nothing yet"}`+"\n" {
		t.Errorf("no snapshot: %d %s, want 404", rec.Code, rec.Body)
	}
}

// TestDeltasComposeOnce pins the per-snapshot cache: since = tick and
// since = tick-1 are composed once each however many requests (run with
// -race, concurrent ones too) ask, with a declared length; any other
// since is composed per request, by the same function, into the same
// bytes a cached body would hold.
func TestDeltasComposeOnce(t *testing.T) {
	var c Core
	var composes [8]atomic.Int32
	d := NewDeltas(5, func(since int) any {
		composes[since].Add(1)
		return map[string]int{"since": since}
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, raw := range []string{"5", "4", "5", "4"} {
				if rec := serveSince(&c, raw, d); rec.Code != http.StatusOK {
					t.Errorf("since=%s: status %d", raw, rec.Code)
				}
			}
		}()
	}
	wg.Wait()
	if a, b := composes[5].Load(), composes[4].Load(); a != 1 || b != 1 {
		t.Fatalf("cached baselines composed %d and %d times, want once each", a, b)
	}
	for i := 1; i <= 2; i++ {
		rec := serveSince(&c, "3", d)
		if got := composes[3].Load(); got != int32(i) {
			t.Fatalf("since=3 request %d: composed %d times, want %d (per request)", i, got, i)
		}
		if want := `{"since":3}` + "\n"; rec.Body.String() != want {
			t.Fatalf("since=3: body %q, want %q", rec.Body, want)
		}
	}
	rec := serveSince(&c, "4", d)
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Fatalf("cached delta: Content-Length %q, body is %s bytes", got, want)
	}
}
