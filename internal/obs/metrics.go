package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 with atomic updates. The
// zero value is ready to use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can be set to arbitrary values (last write
// wins). A nil *Gauge discards updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Add atomically adds delta to the gauge (CAS loop), for gauges used as
// up/down counters like the worker pool's busy count.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// SetMax atomically raises the gauge to v if v exceeds the current
// value, for high-water marks like peak goroutine counts.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// zeros and bucket i (i > 0) holds [2^(i-1), 2^i).
const histBuckets = 65

// Histogram accumulates a distribution of uint64 observations in
// power-of-two buckets, with atomic hot-path updates. A nil *Histogram
// discards observations.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Count and Sum are the number and total of observations.
	Count, Sum uint64
	// Buckets[i] counts observations with bit length i (see histBuckets).
	Buckets [histBuckets]uint64
}

// Mean returns the average observation, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// QuantileBucket returns the index of the power-of-two bucket holding
// the q-quantile observation (nearest-rank over bucket counts), -1 when
// the histogram is empty. Because buckets are log2-spaced, "within one
// power-of-two bucket" comparisons — e.g. a client-observed p50
// against the live histogram's — are index arithmetic.
func (s HistogramSnapshot) QuantileBucket(q float64) int {
	if s.Count == 0 {
		return -1
	}
	rank := uint64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return i
		}
	}
	return histBuckets - 1
}

// QuantileBound returns the inclusive upper bound of the q-quantile's
// bucket (2^i - 1 for bucket i, 0 for the zeros bucket and for an empty
// histogram).
func (s HistogramSnapshot) QuantileBound(q float64) uint64 {
	i := s.QuantileBucket(q)
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// MaxBound returns an upper bound (exclusive) on the largest observation:
// 2^i for the highest non-empty bucket i, 0 when empty.
func (s HistogramSnapshot) MaxBound() uint64 {
	for i := histBuckets - 1; i > 0; i-- {
		if s.Buckets[i] > 0 {
			if i >= 64 {
				return math.MaxUint64
			}
			return 1 << i
		}
	}
	return 0
}

// Registry is a concurrency-safe collection of named metrics. Metric
// handles are registered on first use and stable thereafter, so hot paths
// can hold a *Counter and update it lock-free. A nil *Registry hands out
// nil handles, making every downstream update a no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, registering it on first use.
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

// Gauge returns the named gauge, registering it on first use.
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

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	// Counters maps counter name to value.
	Counters map[string]uint64
	// Gauges maps gauge name to value.
	Gauges map[string]float64
	// Histograms maps histogram name to its snapshot.
	Histograms map[string]HistogramSnapshot
}

// CounterNames returns the counter names in sorted order. Every dump
// and exposition path iterates through these name lists, so any
// rendering of a snapshot is deterministic.
func (s Snapshot) CounterNames() []string { return sortedKeys(s.Counters) }

// GaugeNames returns the gauge names in sorted order.
func (s Snapshot) GaugeNames() []string { return sortedKeys(s.Gauges) }

// HistogramNames returns the histogram names in sorted order.
func (s Snapshot) HistogramNames() []string { return sortedKeys(s.Histograms) }

// Snapshot copies the current value of every registered metric. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		for i := range hs.Buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		snap.Histograms[name] = hs
	}
	return snap
}

// WriteText dumps the registry in the stable plain-text format, one
// metric per line, sorted by name within each kind:
//
//	counter sim.instructions 1234567
//	gauge simpoint.chosen_k 4
//	histogram kmeans.iterations count 50 sum 421 mean 8.42
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	return snap.WriteText(w)
}

// WriteText renders the snapshot in the registry's text format.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, name := range s.CounterNames() {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range s.GaugeNames() {
		if _, err := fmt.Fprintf(w, "gauge %s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range s.HistogramNames() {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "histogram %s count %d sum %d mean %.4g\n",
			name, h.Count, h.Sum, h.Mean()); err != nil {
			return err
		}
	}
	return nil
}

// SumPrefix totals every counter whose name starts with prefix.
func (s Snapshot) SumPrefix(prefix string) uint64 {
	var total uint64
	for name, v := range s.Counters {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			total += v
		}
	}
	return total
}

// SumGaugePrefix totals every gauge whose name starts with prefix.
func (s Snapshot) SumGaugePrefix(prefix string) float64 {
	var total float64
	for name, v := range s.Gauges {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			total += v
		}
	}
	return total
}

// sortedKeys returns a map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
