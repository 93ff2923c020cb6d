package obs

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryIsFullyDisabled exercises every instrument path through a
// nil registry: the package's core contract is that disabled code needs no
// enable branch.
func TestNilRegistryIsFullyDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatalf("nil registry handed out a counter")
	}
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("x")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 0 || g.Max() != 0 {
		t.Errorf("nil gauge = %d/%d", g.Value(), g.Max())
	}
	h := r.Histogram("x", LatencyBounds())
	h.Observe(9)
	h.ObserveDuration(time.Second)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil histogram = %d/%d", h.Count(), h.Sum())
	}
	r.OnSpan(func(Span) { t.Error("hook on nil registry fired") })
	r.StartSpan("x").End()
	s := r.Snapshot()
	if s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Fatalf("nil registry snapshot has nil maps: %+v", s)
	}
	if buf, err := json.Marshal(s); err != nil || string(buf) != "{}" {
		t.Errorf("nil registry snapshot JSON = %s, %v", buf, err)
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rows")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Errorf("counter = %d, want 4", c.Value())
	}
	if r.Counter("rows") != c {
		t.Error("same name returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Set(4)
	g.Add(2)
	if g.Value() != 6 {
		t.Errorf("gauge value = %d, want 6", g.Value())
	}
	if g.Max() != 10 {
		t.Errorf("gauge max = %d, want 10", g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ns", []uint64{10, 100, 1000})
	for _, v := range []uint64{5, 10, 11, 99, 5000} {
		h.Observe(v)
	}
	s := h.snapshot()
	// v <= bounds[i] lands in bucket i; 5000 overflows.
	want := []uint64{2, 2, 0, 1}
	if !reflect.DeepEqual(s.Counts, want) {
		t.Errorf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Min != 5 || s.Max != 5000 {
		t.Errorf("min/max = %d/%d, want 5/5000", s.Min, s.Max)
	}
	if s.Count != 5 || s.Sum != 5+10+11+99+5000 {
		t.Errorf("count/sum = %d/%d", s.Count, s.Sum)
	}
	if m := s.Mean(); m != float64(s.Sum)/5 {
		t.Errorf("mean = %v", m)
	}
	// The 0.5-quantile's cumulative target (3) is reached in bucket 1.
	if q := s.Quantile(0.5); q != 100 {
		t.Errorf("p50 = %d, want 100", q)
	}
	// The max quantile lands in the overflow bucket → reported as Max.
	if q := s.Quantile(1); q != 5000 {
		t.Errorf("p100 = %d, want 5000", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %d", q)
	}
}

func TestHistogramQuantileClampsToObservedRange(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ns", []uint64{100, 1000})
	h.Observe(3)
	s := h.snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 3 {
			t.Errorf("q%v of one observation of 3 in a bucket bounded at 100 = %d, want 3", q, got)
		}
	}
}

func TestBoundsHelpers(t *testing.T) {
	if got := ExpBounds(1, 2, 4); !reflect.DeepEqual(got, []uint64{1, 2, 4, 8}) {
		t.Errorf("ExpBounds = %v", got)
	}
	if got := LinearBounds(0, 5, 3); !reflect.DeepEqual(got, []uint64{0, 5, 10}) {
		t.Errorf("LinearBounds = %v", got)
	}
	// Overflow-safe: stops doubling rather than wrapping.
	big := ExpBounds(1<<62, 4, 10)
	if len(big) != 1 || big[0] != 1<<62 {
		t.Errorf("ExpBounds near overflow = %v", big)
	}
}

func TestSpanHooks(t *testing.T) {
	r := NewRegistry()
	// Without hooks StartSpan must return the zero SpanEnd (no clock read).
	if e := r.StartSpan("quiet"); e != (SpanEnd{}) {
		t.Error("hook-less StartSpan allocated a live span")
	}
	var got []Span
	r.OnSpan(func(s Span) { got = append(got, s) })
	e := r.StartSpan("flush")
	time.Sleep(time.Millisecond)
	e.End()
	if len(got) != 1 || got[0].Name != "flush" || got[0].Duration <= 0 {
		t.Fatalf("spans = %+v", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("record.rows").Add(42)
	r.Gauge("record.queue.depth").Set(17)
	h := r.Histogram("record.flush.ns", []uint64{10, 100})
	h.Observe(7)
	h.Observe(5000)

	s := r.Snapshot()
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", back, s)
	}
	if back.Counter("record.rows") != 42 {
		t.Errorf("counter = %d", back.Counter("record.rows"))
	}
	if back.Gauge("record.queue.depth").Max != 17 {
		t.Errorf("gauge = %+v", back.Gauge("record.queue.depth"))
	}
	if hs := back.Histogram("record.flush.ns"); hs.Count != 2 || hs.Max != 5000 {
		t.Errorf("histogram = %+v", hs)
	}
	// Absent names read as zero values, not panics.
	if back.Counter("nope") != 0 || back.Gauge("nope").Max != 0 || back.Histogram("nope").Count != 0 {
		t.Error("absent instruments not zero")
	}
}

// TestConcurrentInstruments hammers one registry from many goroutines; run
// under -race this is the package's thread-safety proof.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(w*perWorker + i))
				r.Histogram("h", LatencyBounds()).Observe(uint64(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("h", nil).Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if max := r.Gauge("g").Max(); max != workers*perWorker-1 {
		t.Errorf("gauge max = %d, want %d", max, workers*perWorker-1)
	}
}
