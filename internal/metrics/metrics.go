// Package metrics is the engine-wide observability substrate: a
// lightweight, allocation-conscious registry of named counters, gauges
// and latency histograms with fixed log-scale buckets. It has no
// external dependencies and is safe for concurrent use — counters and
// histogram buckets are single atomic words, so instrumented hot paths
// pay one atomic add per event.
//
// Handles returned by Counter/Gauge/Histogram are stable for the life
// of the registry; hot paths should resolve them once and keep them
// rather than looking them up per event.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n events.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed level (pool occupancy, open cursors).
type Gauge struct {
	v atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NumBuckets fixes the histogram resolution: bucket 0 counts zero
// observations and bucket i (i ≥ 1) counts values v in nanoseconds with
// 2^(i-1) ≤ v < 2^i. The last bucket absorbs everything at or beyond
// 2^(NumBuckets-2) ns (≈ 39 hours), so no observation is ever dropped.
const NumBuckets = 48

// Histogram records durations in fixed log-scale (power-of-two) buckets
// with an exact running count, sum and maximum. All fields are atomics;
// Observe is wait-free apart from the max update loop. A histogram made
// by Registry.CountHistogram records plain counts in the same buckets.
type Histogram struct {
	counts  bool // observations are counts, not nanoseconds; fixed at creation
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	max     atomic.Uint64 // nanoseconds
	buckets [NumBuckets]atomic.Uint64
}

// bucketIndex maps a nanosecond value to its bucket: 0 for v == 0,
// otherwise the bit length of v, clamped into the overflow bucket.
func bucketIndex(v uint64) int {
	i := bits.Len64(v)
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i in
// nanoseconds; the overflow bucket reports the maximum uint64.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// ObserveCount records one count (objects, pages) in a histogram made by
// Registry.CountHistogram.
func (h *Histogram) ObserveCount(n int) { h.Observe(time.Duration(n)) }

// Registry holds the engine's named metrics. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CountHistogram is Histogram for a distribution of counts rather than
// durations: snapshots mark it so, and renderings drop the time unit.
func (r *Registry) CountHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{counts: true}
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered metric, keeping the handles valid
// (benchmark hygiene: resolved hot-path handles keep working).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.count.Store(0)
		h.sum.Store(0)
		h.max.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}

// Bucket is one nonzero histogram bucket in a snapshot.
type Bucket struct {
	Upper uint64 `json:"upper_ns"` // inclusive upper bound in ns
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of one histogram. Counts
// marks a histogram of counts: its "ns" fields are then plain numbers.
type HistogramSnapshot struct {
	Counts  bool     `json:"counts,omitempty"`
	Count   uint64   `json:"count"`
	SumNS   uint64   `json:"sum_ns"`
	MaxNS   uint64   `json:"max_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the average observation.
func (h HistogramSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNS / h.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the buckets,
// reporting the upper bound of the bucket holding the q-th observation.
func (h HistogramSnapshot) Quantile(q float64) time.Duration {
	if h.Count == 0 || len(h.Buckets) == 0 {
		return 0
	}
	rank := uint64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen uint64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen > rank {
			if b.Upper == ^uint64(0) || b.Upper > h.MaxNS {
				// Bucket upper bounds can overshoot the largest value
				// actually observed; the true max is a tighter bound.
				return time.Duration(h.MaxNS)
			}
			return time.Duration(b.Upper)
		}
	}
	return time.Duration(h.MaxNS)
}

// Snapshot is a point-in-time copy of a registry, suitable for JSON
// encoding (map keys marshal in sorted order).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric's current value.
//
// extra:output
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Counts: h.counts,
			Count:  h.count.Load(),
			SumNS:  h.sum.Load(),
			MaxNS:  h.max.Load(),
		}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{Upper: BucketUpper(i), Count: n})
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

// WriteText renders the snapshot as aligned human-readable lines,
// sorted by metric name.
//
// extra:output
func (s Snapshot) WriteText(w io.Writer) error {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%-32s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%-32s %d\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		// A time.Duration prints with its unit, an int64 bare.
		unit := func(d time.Duration) any {
			if h.Counts {
				return int64(d)
			}
			return d
		}
		if _, err := fmt.Fprintf(w, "%-32s count=%d mean=%v p50=%v p95=%v p99=%v max=%v\n",
			n, h.Count, unit(h.Mean()), unit(h.Quantile(0.50)), unit(h.Quantile(0.95)), unit(h.Quantile(0.99)),
			unit(time.Duration(h.MaxNS))); err != nil {
			return err
		}
	}
	return nil
}
