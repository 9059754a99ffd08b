package serve

import (
	"cmp"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// Window bounds every Table's change log behind ?since= reads: a client
// further behind than this many ticks gets a full resync, the journal's
// "dropped" analogue.
const Window = 512

// Table is the bounded per-tick change log of one keyed wire table, such
// as per-VM watts, per-tenant watts or host rows. A delta read composes
// from it only the rows that changed after the client's tick, so a
// thousand pollers cost O(changed), not O(roster). Publish runs on the
// Step goroutine; Delta is safe from any goroutine.
type Table[K cmp.Ordered, V any] struct {
	equal func(a, b V) bool
	prev  map[K]V // the rows last published; Step goroutine only

	mu  sync.RWMutex
	log []change[K]
}

// change lists the keys whose row changed, appeared or disappeared on
// one tick.
type change[K any] struct {
	tick int
	keys []K
}

// NewTable returns an empty table whose rows compare with equal.
func NewTable[K cmp.Ordered, V any](equal func(a, b V) bool) *Table[K, V] {
	return &Table[K, V]{equal: equal}
}

// Equal is the equal function of a table whose rows compare with ==.
func Equal[V comparable](a, b V) bool { return a == b }

// Publish logs the keys of rows that differ from the previous tick's rows
// (every key on the first tick), and the keys that left. The table keeps
// rows as the next baseline and Delta reads them, so rows must not change
// after the call.
func (t *Table[K, V]) Publish(tick int, rows map[K]V) {
	// Sized to the table rather than grown: the log retains Window of
	// these, and a growing slice overshoots when every row changes.
	keys := make([]K, 0, len(rows))
	for k, v := range rows {
		if p, ok := t.prev[k]; !ok || !t.equal(p, v) {
			keys = append(keys, k)
		}
	}
	for k := range t.prev {
		if _, ok := rows[k]; !ok {
			keys = append(keys, k)
		}
	}
	t.prev = rows
	t.mu.Lock()
	t.log = append(t.log, change[K]{tick: tick, keys: keys})
	if len(t.log) > Window {
		t.log = t.log[len(t.log)-Window:]
	}
	t.mu.Unlock()
}

// Delta composes the change from the client's tick since to tick, where
// rows is the table as served at tick. It takes the union of the keys
// logged after since and resolves each by presence in rows: a present
// key is an upsert, an absent one a removal (removed comes sorted). The
// log is read only up to tick, so a request holding an older snapshot
// still gets an answer consistent with that snapshot. full reports a
// resync, when since is ahead of tick (a baseline from an earlier daemon)
// or older than the window; upserts is then rows itself, which the
// caller must not modify.
func (t *Table[K, V]) Delta(since, tick int, rows map[K]V) (upserts map[K]V, removed []K, full bool) {
	if since > tick {
		return rows, nil, true
	}
	upserts = make(map[K]V)
	if since == tick {
		return upserts, nil, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.log) == 0 || t.log[0].tick > since+1 {
		return rows, nil, true
	}
	for i := len(t.log) - 1; i >= 0 && t.log[i].tick > since; i-- {
		if t.log[i].tick > tick {
			continue
		}
		for _, k := range t.log[i].keys {
			if v, ok := rows[k]; ok {
				upserts[k] = v
			} else {
				removed = append(removed, k)
			}
		}
	}
	slices.Sort(removed)
	return upserts, slices.Compact(removed), false
}

// Deltas is one published snapshot's cache of the two ?since= bodies a
// poller that keeps up asks for: since = tick (a current client, scalars
// only) and since = tick-1 (this tick's changes). Each is composed and
// encoded once, by the first request that needs it, so the tick pays
// nothing for them. Every other since is composed per request by the
// same function, so cached and per-request bytes are equal by
// construction.
type Deltas struct {
	tick    int
	compose func(since int) any
	bodies  [2]onceBody // indexed by tick - since
}

type onceBody struct {
	once sync.Once
	body Body
}

// NewDeltas returns the delta cache of the snapshot of tick. compose
// builds the delta from since to that snapshot; it must read the logs
// only up to tick (as Table.Delta does), never a later publication.
func NewDeltas(tick int, compose func(since int) any) *Deltas {
	return &Deltas{tick: tick, compose: compose}
}

// ServeDelta answers GET ...?since=raw from d, the served snapshot's
// delta cache: 400 when raw is not a non-negative integer, 404 with
// notYet while nothing is published (d nil), the cached body for since =
// tick or tick-1, and a per-request composition otherwise.
func (c *Core) ServeDelta(w http.ResponseWriter, raw string, d *Deltas, notYet string) {
	since, err := strconv.Atoi(raw)
	if err != nil || since < 0 {
		c.WriteError(w, http.StatusBadRequest, "since must be a non-negative integer")
		return
	}
	if d == nil {
		c.WriteError(w, http.StatusNotFound, notYet)
		return
	}
	if back := d.tick - since; back >= 0 && back < len(d.bodies) {
		b := &d.bodies[back]
		b.once.Do(func() { b.body = Encode(d.compose(since)) })
		if b.body.OK() {
			c.WriteCached(w, b.body)
			return
		}
	}
	// Not a cached baseline, or the body could not encode: the
	// per-request path counts the failure instead of hiding it.
	c.WriteJSON(w, http.StatusOK, d.compose(since))
}
