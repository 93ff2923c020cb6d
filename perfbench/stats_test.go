package main

import (
	"math/rand"
	"slices"
	"testing"
)

// Every reported percentile must be one of the benchmark's own samples,
// so none can exceed the observed max, and the tail percentile must leave
// at least ten samples beyond it whenever there are more than ten.
func TestPercentilesNeverAboveMax(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		draw func() int64
	}{
		{"uniform", func() int64 { return rng.Int63n(1000) }},
		{"heavytail", func() int64 { return int64(1 / (rng.Float64() + 1e-9)) }},
		{"constant", func() int64 { return 42 }},
	}
	for _, shape := range shapes {
		name, draw := shape.name, shape.draw
		for _, n := range []int{1, 2, 10, 11, 50, 999, 1000, 5000} {
			samples := make([]int64, n)
			for i := range samples {
				samples[i] = draw()
			}
			max := slices.Max(samples)
			l := summarize(slices.Clone(samples))
			if l.p50 > float64(max) || l.tail > float64(max) || l.max != float64(max) {
				t.Errorf("%s n=%d: p50 %v tail %v max %v, observed max %d", name, n, l.p50, l.tail, l.max, max)
			}
			if l.n != n {
				t.Errorf("%s n=%d: sample count %d", name, n, l.n)
			}
			if beyond := float64(n) * (1 - l.tailQ); n > 20 && beyond < 10-1e-9 {
				t.Errorf("%s n=%d: tail quantile %v leaves %v samples beyond it", name, n, l.tailQ, beyond)
			}
			if n >= 1000 && l.tailQ != 0.99 {
				t.Errorf("%s n=%d: tail quantile %v, want 0.99", name, n, l.tailQ)
			}
		}
	}
}

// The same pin on real samples: the per-call latencies of one traced MCB
// session through the shim.
func TestPercentilesOfShimSamples(t *testing.T) {
	b := &bench{wl: lookup("mcb"), seed: 3, appSeed: 3}
	s := &session{}
	app := s.app(b, 0.05, true, false)
	if err := newWorld(3, nil).RunRanked(app); err != nil {
		t.Fatal(err)
	}
	samples := s.callSamples()
	max := slices.Max(samples)
	l := summarize(samples)
	if l.p50 > float64(max) || l.tail > float64(max) || l.n == 0 {
		t.Fatalf("p50 %v, tail %v over %d samples, observed max %d", l.p50, l.tail, l.n, max)
	}
}

// Rounds the hypervisor stole more than 1% from only count while they are
// the calmer half.
func TestCalmRounds(t *testing.T) {
	var quiet, noisy series
	for _, st := range []float64{0, 0.004, 0.01, 0.002} {
		quiet.add(map[string]float64{stealKey: st, "v": st})
	}
	if n := len(quiet.calm()); n != 4 {
		t.Errorf("steal within the floor: %d calm rounds, want all 4", n)
	}
	for _, st := range []float64{0.3, 0.02, 0.05, 0.2, 0.01} {
		noisy.add(map[string]float64{stealKey: st, "v": st})
	}
	if got := noisy.median("v"); got != 0.02 {
		t.Errorf("median over the calm rounds = %v, want 0.02 (calm: 0.02, 0.05, 0.01)", got)
	}
}
