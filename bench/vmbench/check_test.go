package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmpower/internal/machine"
	"vmpower/internal/powerd"
)

// TestCorruptedAllocationTripsCheck builds a real daemon, checks a
// clean tick, then corrupts the tick's shares the ways a solver bug
// would and expects the per-tick check to refuse each one.
func TestCorruptedAllocationTripsCheck(t *testing.T) {
	d, err := powerdBuilder(machine.XeonProfile(), serve4VMs)(1, 20*time.Millisecond, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.check(newDigest()); err != nil {
		t.Fatalf("clean tick: %v", err)
	}
	last := d.(*powerDaemon).last
	clean := append([]float64(nil), last.PerVM...)
	for name, corrupt := range map[string]func([]float64){
		"one share shifted":  func(p []float64) { p[0] += 1e-6 * math.Max(1, last.DynamicPower) },
		"shares swapped out": func(p []float64) { p[1] = p[0] },
		"NaN share":          func(p []float64) { p[2] = math.NaN() },
		"dropped share":      func(p []float64) { p[3] = 0 },
	} {
		copy(last.PerVM, clean)
		corrupt(last.PerVM)
		if err := d.check(newDigest()); err == nil {
			t.Errorf("%s: check passed a corrupted allocation %v (dyn %g)", name, last.PerVM, last.DynamicPower)
		}
	}
}

func allocationBody(t *testing.T, perVM map[string]float64, dyn float64, tick int) []byte {
	t.Helper()
	body, err := json.Marshal(powerd.AllocationJSON{Tick: tick, DynamicWatts: dyn, PerVM: perVM})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestScraperFailureAccounting drives one scraper through a good reply,
// a non-200 reply, a sampled body that fails its check, and a transport
// error, and checks how each is counted and reported.
func TestScraperFailureAccounting(t *testing.T) {
	names := []string{"a", "b"}
	good := allocationBody(t, map[string]float64{"a": 1.5, "b": 2.5}, 4, 7)
	bad := allocationBody(t, map[string]float64{"a": 1.5, "b": 2.6}, 4, 8)
	replies := []func(http.ResponseWriter){
		func(w http.ResponseWriter) { w.Write(good) },
		func(w http.ResponseWriter) { http.Error(w, "no", http.StatusInternalServerError) },
		func(w http.ResponseWriter) { w.Write(bad) },
	}
	n := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		replies[n](w)
		n++
	}))
	s := newScraper(srv.URL, workloadSpec{mix: []endpoint{epAllocation}}, 1, &powerChecker{names: names}, nil)
	var buf bytes.Buffer
	s.scrape(epAllocation, &buf) // sampled: checked and passes
	s.scrape(epAllocation, &buf) // 500
	s.sent[epAllocation] = sampleEvery
	s.scrape(epAllocation, &buf) // sampled: shares do not sum to the dynamic power
	s.client.CloseIdleConnections()
	srv.Close()
	s.scrape(epAllocation, &buf) // connection refused

	if s.attempted != 4 || s.failed != 3 || s.badBody == nil || len(s.lat[epAllocation]) != 1 {
		t.Fatalf("attempted=%d failed=%d badBody=%v ok=%d, want 4 3 set 1",
			s.attempted, s.failed, s.badBody, len(s.lat[epAllocation]))
	}
	if s.lastTick != 8 {
		t.Errorf("lastTick = %d, want 8 (read from the newest full body)", s.lastTick)
	}

	r := &runData{ticks: 10, tickErrors: 2, scrapers: []*scraper{s}, phase: time.Second, setupS: []float64{1}}
	var out bytes.Buffer
	res, err := report(&out, workloads[0], 1, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 14 || res.Failed != 5 || !res.Correct {
		t.Errorf("result attempted=%d failed=%d correct=%v, want 14 5 true", res.Attempted, res.Failed, res.Correct)
	}
	for _, want := range []string{"2 of 10 ticks failed", "3 of 4 scrapes failed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}

	// A traced run's result also counts the untraced run it made first.
	base := &runData{ticks: 5, tickErrors: 1, violation: true}
	if res, err = report(&out, workloads[0], 1, r, base); err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 19 || res.Failed != 6 || res.Correct {
		t.Errorf("with base: attempted=%d failed=%d correct=%v, want 19 6 false", res.Attempted, res.Failed, res.Correct)
	}
}

// TestDeltaCompositionCheck composes a sampled delta onto the base
// allocation: a delta that completes the base is accepted, one whose
// changed share breaks Efficiency is refused.
func TestDeltaCompositionCheck(t *testing.T) {
	c := &powerChecker{names: []string{"a", "b"}}
	if err := c.check(epAllocation, 0, allocationBody(t, map[string]float64{"a": 1, "b": 3}, 4, 5)); err != nil {
		t.Fatal(err)
	}
	delta := func(b float64) []byte {
		body, err := json.Marshal(powerd.AllocationDeltaJSON{Since: 5, Tick: 6, DynamicWatts: 5, PerVM: map[string]float64{"b": b}})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	if err := c.check(epSince, 5, delta(4)); err != nil {
		t.Errorf("valid delta refused: %v", err)
	}
	if err := c.check(epSince, 5, delta(3)); err == nil {
		t.Error("delta breaking Efficiency accepted")
	}
	if err := c.check(epSince, 4, delta(4)); err == nil {
		t.Error("delta answering the wrong since accepted")
	}
}
