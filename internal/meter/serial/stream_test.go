package serial

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"vmpower/internal/faults"
	"vmpower/internal/meter"
)

func testMeter(t *testing.T, power float64) meter.Meter {
	t.Helper()
	m, err := meter.Perfect(func() (float64, error) { return power, nil })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(nil, time.Millisecond); err == nil {
		t.Fatal("want nil-meter error")
	}
	if _, err := NewServer(testMeter(t, 1), 0); err == nil {
		t.Fatal("want non-positive-interval error")
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	srv, err := NewServer(testMeter(t, 151.5), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}

	var lastSeq uint64
	for i := 0; i < 5; i++ {
		s, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if s.Power != 151.5 {
			t.Fatalf("Power = %g", s.Power)
		}
		if s.Seq <= lastSeq {
			t.Fatalf("sequence not increasing: %d after %d", s.Seq, lastSeq)
		}
		lastSeq = s.Seq
	}
}

func TestServerSkipsDropouts(t *testing.T) {
	// A meter with heavy dropouts must still deliver a stream: the
	// server skips lost samples rather than closing the connection.
	lossy, err := faults.Wrap(testMeter(t, 100), faults.Options{DropoutProb: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lossy.SetArmed(true)
	srv, err := NewServer(lossy, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if s.Power != 100 {
			t.Fatalf("Power = %g", s.Power)
		}
	}
	if lossy.Injected().Dropouts == 0 {
		t.Fatal("no dropouts injected")
	}
}

func TestServerDoubleStartAndClose(t *testing.T) {
	srv, err := NewServer(testMeter(t, 1), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Fatal("want already-started error")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing an unstarted server is a no-op.
	srv2, _ := NewServer(testMeter(t, 1), time.Millisecond)
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("want connection-refused error")
	}
}

func TestMultipleClients(t *testing.T) {
	srv, err := NewServer(testMeter(t, 77), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for c := 0; c < 3; c++ {
		client, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		s, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if s.Power != 77 {
			t.Fatalf("client %d: Power = %g", c, s.Power)
		}
		client.Close()
	}
}

// corruptFrames yields an endless stream of frames whose magic is intact
// but whose CRC is wrong — the worst case for a resynchronising reader,
// which reports ErrBadFrame once per frame forever.
type corruptFrames struct{ frame []byte }

func newCorruptFrames(t *testing.T) *corruptFrames {
	t.Helper()
	buf, err := Encode(meter.Sample{Seq: 1, Power: 100})
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF // break the CRC, keep the magic
	return &corruptFrames{frame: buf}
}

func (c *corruptFrames) Read(p []byte) (int, error) {
	n := 0
	for n+len(c.frame) <= len(p) {
		n += copy(p[n:], c.frame)
	}
	if n == 0 {
		n = copy(p, c.frame[:len(p)])
	}
	return n, nil
}

func TestClientNextBadFrameCap(t *testing.T) {
	// A peer emitting a continuous corrupt stream must not spin Next
	// forever: after MaxConsecutiveBadFrames skips it surfaces the typed
	// ErrCorruptStream instead.
	c := &Client{r: NewReader(newCorruptFrames(t))}
	_, err := c.Next()
	if !errors.Is(err, ErrCorruptStream) {
		t.Fatalf("Next on garbage stream: %v, want ErrCorruptStream", err)
	}
}

func TestClientNextToleratesGlitchRuns(t *testing.T) {
	// A glitch run shorter than the cap must still be skipped: corrupt
	// frames followed by a valid one yield the valid sample, and the
	// consecutive counter resets on success.
	var buf bytes.Buffer
	bad := newCorruptFrames(t).frame
	for run := 0; run < 2; run++ {
		for i := 0; i < MaxConsecutiveBadFrames-1; i++ {
			buf.Write(bad)
		}
		good, err := Encode(meter.Sample{Seq: uint64(run), Power: 42})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(good)
	}
	c := &Client{r: NewReader(&buf)}
	for run := 0; run < 2; run++ {
		s, err := c.Next()
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if s.Power != 42 {
			t.Fatalf("run %d: Power = %g", run, s.Power)
		}
	}
}
