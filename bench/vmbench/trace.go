package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval: a call into a layer, timed from the
// benchmark's side of the boundary. Times are nanoseconds since the
// trace began. Parent indexes the same buffer (-1 for a root); ID is the
// tick number for tick spans and the request sequence for scrape spans,
// shared by a root and its children.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int    `json:"id"`
}

// spanBuf keeps spans in memory until the run ends. It is owned by one
// goroutine; each scraper has its own and the buffers are merged after
// the run.
type spanBuf struct {
	t0    time.Time
	spans []span
}

func newSpanBuf(t0 time.Time, capacity int) *spanBuf {
	return &spanBuf{t0: t0, spans: make([]span, 0, capacity)}
}

// add records a span and returns its index (the parent of later children).
func (b *spanBuf) add(name string, start, end time.Time, parent, id int) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{
		Name:   name,
		Start:  start.Sub(b.t0).Nanoseconds(),
		End:    end.Sub(b.t0).Nanoseconds(),
		Parent: parent,
		ID:     id,
	})
	return len(b.spans) - 1
}

// merge appends other's spans, re-indexing their parents.
func (b *spanBuf) merge(other *spanBuf) {
	base := len(b.spans)
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		b.spans = append(b.spans, s)
	}
}

// selfTimes returns, per span name, every span's self time in
// microseconds: its duration minus the part of its interval that its
// children cover (overlapping children are counted once).
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		covered := coverage(children[i], s.Start, s.End)
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e3)
	}
	return out
}

// coverage is the length of the union of intervals, clipped to [lo, hi].
func coverage(intervals [][2]int64, lo, hi int64) int64 {
	if len(intervals) == 0 {
		return 0
	}
	sort.Slice(intervals, func(a, b int) bool { return intervals[a][0] < intervals[b][0] })
	var total int64
	cur := lo
	for _, iv := range intervals {
		start, end := max(iv[0], cur), min(iv[1], hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// writeTrace dumps the spans as JSON lines, one span per line.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
