package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"vmpower/internal/obs"
)

// endpoint is one kind of billing read the scrapers send.
type endpoint int

const (
	epAllocation endpoint = iota // GET /api/v1/allocation
	epSince                      // GET /api/v1/allocation?since=<tick>
	epStatus                     // GET /api/v1/status
	epEnergy                     // GET /api/v1/energy
	numEndpoints
)

func (e endpoint) String() string {
	return [...]string{"allocation", "allocation_since", "status", "energy"}[e]
}

func (e endpoint) path() string {
	return [...]string{"/api/v1/allocation", "/api/v1/allocation", "/api/v1/status", "/api/v1/energy"}[e]
}

// Load-model constants: two closed-loop pollers, each on its own
// keep-alive connection, checking every sampleEvery-th body per endpoint
// (and, in a traced run, keeping a span for every sampleEvery-th
// request, which bounds the dump of a scrape storm). The daemon is set
// up at least minSetups times and until set-ups have taken a
// setupShare of the run's length (at most maxSetups times); the last
// build is the one measured.
const (
	scrapers    = 2
	sampleEvery = 16
	minSetups   = 5
	maxSetups   = 60
	setupShare  = 0.1
	// stormRate bounds the request rate of a poller with no think time,
	// for sizing its latency log up front.
	stormRate = 40000
)

// scraper is one closed-loop billing poller: it sends the next request
// only after reading the last byte of the previous reply (plus the
// workload's think time), so latency is timed from send to last byte.
type scraper struct {
	client *http.Client
	base   string
	mix    []endpoint
	think  time.Duration
	check  bodyChecker
	spans  *spanBuf // nil in an untraced run

	lastTick  int // newest tick seen in a full allocation body
	sent      [numEndpoints]int
	lat       [numEndpoints][]time.Duration
	bytes     [numEndpoints]int64
	attempted int
	failed    int
	firstErr  error
	badBody   error // first sampled body that failed its check
}

// newScraper builds a poller whose latency logs are sized for seconds of
// scraping, so that filling them leaves no garbage behind to move the
// process's peak memory.
func newScraper(base string, w workloadSpec, seconds float64, check bodyChecker, spans *spanBuf) *scraper {
	rate := float64(stormRate)
	if w.think > 0 {
		rate = 1 / w.think.Seconds()
	}
	s := &scraper{
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   10 * time.Second,
		},
		base:  base,
		mix:   w.mix,
		think: w.think,
		check: check,
		spans: spans,
	}
	for _, ep := range w.mix {
		s.lat[ep] = make([]time.Duration, 0, int(seconds*rate)/len(w.mix)+1)
	}
	return s
}

// run polls round-robin over the mix until stop closes. The think time
// is drawn uniformly from [think/2, 3·think/2]: a fixed pause lets a
// closed loop lock onto the tick cadence, so whether its requests meet
// the ticks would depend on the phase it happened to settle in.
func (s *scraper) run(stop <-chan struct{}, rng *rand.Rand) {
	var buf bytes.Buffer
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		s.scrape(s.mix[i%len(s.mix)], &buf)
		if s.think > 0 {
			time.Sleep(s.think/2 + time.Duration(rng.Int63n(int64(s.think))))
		}
	}
}

// scrape sends one request. Every sampleEvery-th request of each
// endpoint has its body checked; a sampled delta read asks for the
// changes since the checker's base allocation, so it can be composed
// onto it and checked as a whole.
func (s *scraper) scrape(ep endpoint, buf *bytes.Buffer) {
	sampled := s.sent[ep]%sampleEvery == 0
	s.sent[ep]++
	url := s.base + ep.path()
	since := 0
	if ep == epSince {
		since = s.lastTick
		if sampled && s.check.baseTick() >= 0 {
			since = s.check.baseTick()
		}
		url += "?since=" + strconv.Itoa(since)
	}
	s.attempted++
	start := time.Now()
	resp, err := s.client.Get(url)
	if err != nil {
		s.fail(err)
		return
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		s.fail(fmt.Errorf("GET %s: reading body: %w", url, err))
		return
	}
	if resp.StatusCode != http.StatusOK {
		s.fail(fmt.Errorf("GET %s: %s", url, resp.Status))
		return
	}
	body := buf.Bytes()
	if ep == epAllocation {
		if t, ok := leadingTick(body); ok {
			s.lastTick = t
		}
	}
	if sampled {
		if err := s.check.check(ep, since, body); err != nil {
			err = fmt.Errorf("GET %s: body check: %w", url, err)
			if s.badBody == nil {
				s.badBody = err
			}
			s.fail(err)
			return
		}
	}
	s.lat[ep] = append(s.lat[ep], end.Sub(start))
	s.bytes[ep] += int64(len(body))
	if s.attempted%sampleEvery == 0 {
		s.spans.add("http."+ep.String()+".client", start, end, -1, s.attempted)
	}
}

// appendLatencies appends the poller's latencies for ep, in ms, to dst.
func (s *scraper) appendLatencies(dst []float64, ep endpoint) []float64 {
	for _, l := range s.lat[ep] {
		dst = append(dst, float64(l)/1e6)
	}
	return dst
}

func (s *scraper) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// leadingTick reads the tick number both daemons put first in an
// allocation body ({"tick":N,...}) without decoding the rest.
func leadingTick(body []byte) (int, bool) {
	const prefix = `{"tick":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0, false
	}
	rest := body[len(prefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	t, err := strconv.Atoi(string(rest[:end]))
	return t, err == nil
}

// runData is everything one run measured, before it is reduced to
// metrics.
type runData struct {
	ticks      int
	interval   time.Duration
	setupS     []float64
	tickMS     []float64 // every successful tick's Step time
	lateMS     []float64 // how late each tick started against its due time
	tickErrors int
	firstErr   error // first tick or correctness failure
	violation  bool  // firstErr is a correctness violation
	phase      time.Duration
	digest     string
	opsTried   int
	opsRefused int
	rssMB      float64 // peak RSS when the tick phase ended

	scrapers []*scraper

	// Traced run only.
	traced      bool
	spans       []span
	recs        []layerRec
	allocs      float64 // heap objects allocated during Steps
	allocBytes  float64
	gcCycles    float64 // over the whole tick phase
	serverSum   map[string]float64
	serverCount map[string]float64
}

// counts returns the operations the run attempted (ticks, scrapes and
// scenario operations) and how many of them failed.
func (r *runData) counts() (attempted, failed int) {
	attempted, failed = r.ticks+r.opsTried, r.tickErrors+r.opsRefused
	for _, s := range r.scrapers {
		attempted += s.attempted
		failed += s.failed
	}
	return attempted, failed
}

// measure runs one workload: the set-ups, then ticks due every interval
// for the run's length while two pollers scrape the daemon.
func measure(w workloadSpec, seed int64, seconds float64, traced bool) (*runData, error) {
	ticks := max(1, int(seconds/w.interval.Seconds()+0.5))
	r := &runData{ticks: ticks, interval: w.interval, traced: traced}

	var d daemon
	var spent float64
	for len(r.setupS) < minSetups || spent < setupShare*seconds && len(r.setupS) < maxSetups {
		d = nil
		runtime.GC()
		start := time.Now()
		var err error
		if d, err = w.build(seed, w.interval, ticks+1, traced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start).Seconds()
		spent += took
		r.setupS = append(r.setupS, took)
	}
	runtime.GC()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: d.handler(), ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	reg := d.registry()
	r.serverSum, r.serverCount = map[string]float64{}, map[string]float64{}
	serverHists := func(sign float64) {
		for _, ep := range []endpoint{epAllocation, epStatus, epEnergy} {
			h := reg.Histogram("vmpower_http_request_duration_seconds", "", nil, obs.L("path", ep.path()))
			r.serverSum[ep.path()] += sign * h.Sum()
			r.serverCount[ep.path()] += sign * float64(h.Count())
		}
	}
	heap := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	if traced {
		serverHists(-1)
		metrics.Read(gc)
		r.gcCycles = -float64(gc[0].Value.Uint64())
	}

	t0 := time.Now()
	var tickSpans *spanBuf
	if traced {
		tickSpans = newSpanBuf(t0, ticks*8)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		var spans *spanBuf
		if traced {
			spans = newSpanBuf(t0, 1024)
		}
		s := newScraper("http://"+ln.Addr().String(), w, seconds, d.newChecker(), spans)
		r.scrapers = append(r.scrapers, s)
		rng := rand.New(rand.NewSource(seed*scrapers + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(stop, rng)
		}()
	}

	dig := newDigest()
	fail := func(err error, violation bool) {
		if r.firstErr == nil {
			r.firstErr, r.violation = err, violation
		}
	}
	for i := 0; i < ticks; i++ {
		due := t0.Add(time.Duration(i) * w.interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		var objs, bs uint64
		if traced {
			d.mark()
			metrics.Read(heap)
			objs, bs = heap[0].Value.Uint64(), heap[1].Value.Uint64()
		}
		start := time.Now()
		err := d.step()
		end := time.Now()
		if traced {
			metrics.Read(heap)
			r.allocs += float64(heap[0].Value.Uint64() - objs)
			r.allocBytes += float64(heap[1].Value.Uint64() - bs)
		}
		r.lateMS = append(r.lateMS, float64(start.Sub(due))/1e6)
		if err != nil {
			r.tickErrors++
			fail(fmt.Errorf("tick %d: %w", i, err), false)
			continue
		}
		r.tickMS = append(r.tickMS, float64(end.Sub(start))/1e6)
		if err := d.check(dig); err != nil {
			fail(err, true)
		}
		if traced {
			parent := tickSpans.add(d.name()+".step", start, end, -1, i)
			rec := layerRec{buf: tickSpans, parent: parent, tick: i, start: start}
			if err := d.layers(&rec); err != nil {
				fail(err, true)
			}
			r.recs = append(r.recs, rec)
		}
	}
	r.phase = time.Since(t0)
	close(stop)
	wg.Wait()
	if traced {
		serverHists(1)
		metrics.Read(gc)
		r.gcCycles += float64(gc[0].Value.Uint64())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("stopping the HTTP server: %w", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, fmt.Errorf("HTTP server: %w", err)
	}
	for _, s := range r.scrapers {
		s.client.CloseIdleConnections()
		if s.badBody != nil {
			fail(s.badBody, true)
		}
		if traced {
			tickSpans.merge(s.spans)
		}
	}
	if traced {
		r.spans = tickSpans.spans
	}
	r.digest = dig.String()
	if r.rssMB, err = peakRSSMB(); err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	r.opsTried, r.opsRefused = d.ops()
	if r.opsRefused > 0 {
		fail(fmt.Errorf("%d of %d scenario operations refused", r.opsRefused, r.opsTried), true)
	}
	return r, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
