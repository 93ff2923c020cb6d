// Package obs is the pipeline's zero-dependency observability layer:
// atomic counters, gauges with high-water tracking, fixed-bound histograms,
// and span hooks, collected under a named Registry whose Snapshot marshals
// to JSON.
//
// The design constraint is that instrumentation must be free when disabled.
// Every instrument method is nil-safe: a nil *Registry hands out nil
// instruments, and calling Add/Set/Observe on a nil instrument is a single
// pointer check — no branch on a config struct, no interface dispatch, no
// allocation. Pipeline layers therefore resolve their instruments once at
// construction time and call them unconditionally on the hot path; wiring
// a real Registry (or not) is the only switch.
//
// Metric names form a dotted hierarchy documented in DESIGN.md §8
// (layer.subsystem.metric, e.g. "record.queue.stalls", "encode.bytes.lpe",
// "replay.wait.ns"). Units are encoded in the final name segment: .ns for
// nanoseconds, .bytes/.rows/.ticks for counts of that quantity.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil Counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil Counter.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (zero for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value that also tracks its high-water
// mark. A nil Gauge is a no-op.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

func (g *Gauge) bumpMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Set stores v and raises the high-water mark. No-op on a nil Gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.bumpMax(v)
}

// Add adjusts the gauge by d and raises the high-water mark. No-op on a
// nil Gauge.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	v := g.v.Add(d)
	g.bumpMax(v)
}

// Value returns the current value (zero for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark: the largest value ever Set or reached
// via Add (at least zero).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with v <= bounds[i]; one overflow bucket counts the rest.
// Bounds are fixed at creation so concurrent Observe needs no locking.
// A nil Histogram is a no-op.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    atomic.Uint64
	min    atomic.Uint64 // MaxUint64 until the first observation
	max    atomic.Uint64
}

func newHistogram(bounds []uint64) *Histogram {
	h := &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.min.Store(math.MaxUint64)
	return h
}

// Observe records one value. No-op on a nil Histogram.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds. No-op on a nil
// Histogram.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(uint64(d.Nanoseconds()))
}

// StartTimer samples the clock and returns a function that records the
// elapsed nanoseconds when called. On a nil Histogram the clock is never
// sampled and the returned function is a no-op — which is what lets
// lint-clean deterministic packages (cdclint nodeterm) time their stages:
// the wall-clock read lives here, behind the instrument, instead of in the
// encode/decode path itself.
func (h *Histogram) StartTimer() func() {
	if h == nil {
		return func() {}
	}
	start := time.Now() //cdc:allow(nodetermflow) timer hook measures handler latency for metrics only
	return func() { h.ObserveDuration(time.Since(start)) }
}

// Count returns the number of observations (zero for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (zero for nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot captures the histogram's state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
		Bounds: append([]uint64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	if min := h.min.Load(); min != math.MaxUint64 {
		s.Min = min
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// ExpBounds returns n exponentially spaced bucket bounds starting at start
// and multiplying by factor (≥2 recommended).
func ExpBounds(start, factor uint64, n int) []uint64 {
	bounds := make([]uint64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		bounds = append(bounds, v)
		if v > math.MaxUint64/factor {
			break
		}
		v *= factor
	}
	return bounds
}

// LinearBounds returns n linearly spaced bucket bounds start, start+step, …
func LinearBounds(start, step uint64, n int) []uint64 {
	bounds := make([]uint64, n)
	for i := range bounds {
		bounds[i] = start + uint64(i)*step
	}
	return bounds
}

// LatencyBounds is the default nanosecond bucketing for latency
// histograms: 1µs to ~17s, ×2 per bucket.
func LatencyBounds() []uint64 { return ExpBounds(1000, 2, 25) }

// SizeBounds is the default byte bucketing for size histograms: 64 B to
// 2 GiB, ×4 per bucket.
func SizeBounds() []uint64 { return ExpBounds(64, 4, 13) }

// Span is one completed traced operation, delivered to span hooks.
type Span struct {
	// Name identifies the operation (same hierarchy as metric names).
	Name string
	// Start is when the operation began.
	Start time.Time
	// Duration is how long it took.
	Duration time.Duration
}

// SpanHook receives completed spans. Hooks run synchronously on the
// instrumented goroutine; keep them fast.
type SpanHook func(Span)

// SpanEnd finishes a span started with StartSpan. The zero value (from a
// nil or hook-less Registry) is a no-op.
type SpanEnd struct {
	r     *Registry
	name  string
	start time.Time
}

// End completes the span and delivers it to the registry's hooks.
func (e SpanEnd) End() {
	if e.r == nil {
		return
	}
	sp := Span{Name: e.name, Start: e.start, Duration: time.Since(e.start)} //cdc:allow(nodetermflow) span duration is observability metadata; it never reaches encoded bytes
	for _, h := range e.r.hooks.Load().([]SpanHook) {
		h(sp)
	}
}

// Registry is a named collection of instruments. A nil *Registry is the
// disabled state: every accessor returns a nil instrument and StartSpan
// returns a no-op SpanEnd, so instrumented code needs no enable branch.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	hasHooks atomic.Bool
	hooks    atomic.Value // []SpanHook
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.hooks.Store([]SpanHook(nil))
	return r
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil Registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil Registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with bounds on first
// use (later calls reuse the first bounds). Returns nil on a nil Registry.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// OnSpan registers a hook receiving every completed span.
func (r *Registry) OnSpan(h SpanHook) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	hooks := append(append([]SpanHook(nil), r.hooks.Load().([]SpanHook)...), h)
	r.hooks.Store(hooks)
	r.hasHooks.Store(true)
}

// StartSpan begins a traced operation; call End on the result. When the
// registry is nil or has no hooks this costs two loads and samples no
// clock.
func (r *Registry) StartSpan(name string) SpanEnd {
	if r == nil || !r.hasHooks.Load() {
		return SpanEnd{}
	}
	return SpanEnd{r: r, name: name, start: time.Now()} //cdc:allow(nodetermflow) span start stamp is observability metadata; it never reaches encoded bytes
}

// GaugeSnapshot is a gauge's captured state.
type GaugeSnapshot struct {
	// Value is the instantaneous value at capture.
	Value int64 `json:"value"`
	// Max is the high-water mark.
	Max int64 `json:"max"`
}

// HistogramSnapshot is a histogram's captured state.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count uint64 `json:"count"`
	// Sum is the total of observed values.
	Sum uint64 `json:"sum"`
	// Min and Max bound the observed values (both zero when Count is 0).
	Min uint64 `json:"min"`
	Max uint64 `json:"max"`
	// Bounds are the upper bucket bounds; Counts has one extra overflow
	// bucket.
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
}

// Mean returns the average observed value (zero when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (0 < q ≤ 1) from the
// bucket counts: the bound of the first bucket at which the cumulative
// count reaches q·Count, clamped to [Min, Max] — no quantile lies outside
// the observed range, however coarse the bucket. Returns Max for the
// overflow bucket.
func (h HistogramSnapshot) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.Count)))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.Bounds) {
				return min(max(h.Bounds[i], h.Min), h.Max)
			}
			return h.Max
		}
	}
	return h.Max
}

// Snapshot is a point-in-time copy of every instrument in a registry. It
// marshals to stable JSON (map keys sort) and unmarshals back losslessly.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Counter returns a counter's value from the snapshot (zero if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns a gauge's state from the snapshot (zero if absent).
func (s Snapshot) Gauge(name string) GaugeSnapshot { return s.Gauges[name] }

// Histogram returns a histogram's state from the snapshot (zero if
// absent).
func (s Snapshot) Histogram(name string) HistogramSnapshot {
	return s.Histograms[name]
}

// Snapshot captures every instrument. A nil Registry yields an empty
// (but non-nil-map) Snapshot so callers can marshal it unconditionally.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]GaugeSnapshot{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}
