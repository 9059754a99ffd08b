package meter

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func constSource(p float64) PowerSource {
	return func() (float64, error) { return p, nil }
}

func TestNewSimValidation(t *testing.T) {
	if _, err := NewSim(nil, SimOptions{}); err == nil {
		t.Fatal("want nil-source error")
	}
	if _, err := NewSim(constSource(1), SimOptions{NoiseStdDev: -1}); err == nil {
		t.Fatal("want negative-noise error")
	}
}

func TestPerfectMeter(t *testing.T) {
	m, err := Perfect(constSource(151.5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		s, err := m.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if s.Power != 151.5 {
			t.Fatalf("Power = %g", s.Power)
		}
		if s.Seq != uint64(i) {
			t.Fatalf("Seq = %d, want %d", s.Seq, i)
		}
	}
}

func TestQuantization(t *testing.T) {
	m, err := NewSim(constSource(151.543), SimOptions{Resolution: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Power-151.5) > 1e-9 {
		t.Fatalf("quantized = %g, want 151.5", s.Power)
	}
}

func TestNoiseStatistics(t *testing.T) {
	const (
		truth = 100.0
		sigma = 0.5
		n     = 4000
	)
	m, err := NewSim(constSource(truth), SimOptions{NoiseStdDev: sigma, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		s, err := m.Sample()
		if err != nil {
			t.Fatal(err)
		}
		sum += s.Power
		sumSq += s.Power * s.Power
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-truth) > 0.1 {
		t.Fatalf("noisy mean = %g", mean)
	}
	if math.Abs(std-sigma) > 0.1 {
		t.Fatalf("noisy std = %g, want ~%g", std, sigma)
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	m, err := NewSim(func() (float64, error) { return 0, boom }, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Sample(); !errors.Is(err, boom) {
		t.Fatalf("want source error, got %v", err)
	}
}

func TestNegativeClamp(t *testing.T) {
	m, err := NewSim(constSource(0.01), SimOptions{NoiseStdDev: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s, err := m.Sample()
		if err != nil {
			t.Fatal(err)
		}
		if s.Power < 0 {
			t.Fatalf("negative power %g", s.Power)
		}
	}
}

func TestConcurrentSampling(t *testing.T) {
	m, err := NewSim(constSource(10), SimOptions{NoiseStdDev: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	seqs := make([][]uint64, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s, err := m.Sample()
				if err != nil {
					t.Error(err)
					return
				}
				seqs[g] = append(seqs[g], s.Seq)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool, 800)
	for _, list := range seqs {
		for _, s := range list {
			if seen[s] {
				t.Fatalf("duplicate sequence %d", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != 800 {
		t.Fatalf("got %d unique sequences, want 800", len(seen))
	}
}
