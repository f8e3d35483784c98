package obs

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Counters must be safe for concurrent increments (run under -race) and
// lose no updates.
func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const perG = 10_000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the goroutines fetch the handle fresh each time,
			// exercising the registry lock concurrently with updates.
			c := reg.Counter("shared")
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					reg.Counter("shared").Inc()
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Error("counter handle not stable")
	}
	if reg.Gauge("g") != reg.Gauge("g") {
		t.Error("gauge handle not stable")
	}
	if reg.Histogram("h") != reg.Histogram("h") {
		t.Error("histogram handle not stable")
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("cpi")
	g.Set(1.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("gauge = %v", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("iters")
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	snap := reg.Snapshot().Histograms["iters"]
	if snap.Count != 6 || snap.Sum != 1010 {
		t.Fatalf("count %d sum %d", snap.Count, snap.Sum)
	}
	if got := snap.Mean(); got != 1010.0/6 {
		t.Fatalf("mean %v", got)
	}
	// 1000 has bit length 10.
	if snap.Buckets[10] != 1 {
		t.Fatalf("bucket 10 = %d, want 1", snap.Buckets[10])
	}
	if snap.Buckets[0] != 1 { // the single zero
		t.Fatalf("zero bucket %d", snap.Buckets[0])
	}
}

func TestSnapshotWriteTextStable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.count").Add(2)
	reg.Counter("a.count").Add(1)
	reg.Gauge("m.gauge").Set(0.5)
	reg.Histogram("h.hist").Observe(4)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "counter a.count 1\n" +
		"counter z.count 2\n" +
		"gauge m.gauge 0.5\n" +
		"histogram h.hist count 1 sum 4 mean 4\n"
	if sb.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestSnapshotSumPrefix(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("w.p00").Set(0.25)
	reg.Gauge("w.p01").Set(0.75)
	reg.Gauge("other").Set(100)
	snap := reg.Snapshot()
	if got := snap.SumGaugePrefix("w.p"); got != 1.0 {
		t.Fatalf("SumGaugePrefix = %v", got)
	}
}

// Every metric type must be a no-op on nil receivers.
func TestNilMetricsAreNoops(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(1)
	reg.Counter("x").Inc()
	reg.Gauge("x").Set(1)
	reg.Histogram("x").Observe(1)
	if v := reg.Counter("x").Value(); v != 0 {
		t.Fatalf("nil counter value %d", v)
	}
	if v := reg.Gauge("x").Value(); v != 0 {
		t.Fatalf("nil gauge value %v", v)
	}
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

// The default-off path must not allocate: that is the contract that lets
// the pipeline call metrics unconditionally in instrumented code.
func TestNoopZeroAllocations(t *testing.T) {
	var o *Observer
	if n := testing.AllocsPerRun(100, func() {
		o.Counter("sim.instructions").Add(1)
		o.Gauge("simpoint.chosen_k").Set(4)
		o.Histogram("kmeans.iterations_per_restart").Observe(9)
		o.Emit(PipelineEvent{Kind: "progress", Benchmark: "gcc", Stage: "profile"})
	}); n != 0 {
		t.Fatalf("nil observer allocates %v per call set", n)
	}
}

func BenchmarkNoopCounterAdd(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Counter("sim.instructions").Add(1)
	}
}

func BenchmarkLiveCounterAdd(b *testing.B) {
	o := New()
	c := o.Counter("sim.instructions")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkNoopHistogramObserve(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func TestGaugeAddAndSetMax(t *testing.T) {
	var g Gauge
	g.Add(2.5)
	g.Add(-1)
	if v := g.Value(); v != 1.5 {
		t.Fatalf("after Add: %v", v)
	}
	g.SetMax(3)
	if v := g.Value(); v != 3 {
		t.Fatalf("after SetMax(3): %v", v)
	}
	g.SetMax(2) // lower: must not regress
	if v := g.Value(); v != 3 {
		t.Fatalf("SetMax lowered the gauge to %v", v)
	}
	var nilG *Gauge
	nilG.Add(1)
	nilG.SetMax(1)

	var wg sync.WaitGroup
	var busy Gauge
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				busy.Add(1)
				busy.Add(-1)
			}
		}()
	}
	wg.Wait()
	if v := busy.Value(); v != 0 {
		t.Fatalf("concurrent Add lost updates: %v", v)
	}
}

// Snapshot name listings are the deterministic iteration order every
// dump/exposition path uses; they must be sorted.
func TestSnapshotNamesSorted(t *testing.T) {
	reg := NewRegistry()
	for _, n := range []string{"z", "a", "m"} {
		reg.Counter("c." + n).Inc()
		reg.Gauge("g." + n).Set(1)
		reg.Histogram("h." + n).Observe(1)
	}
	snap := reg.Snapshot()
	if got, want := snap.CounterNames(), []string{"c.a", "c.m", "c.z"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("CounterNames = %v", got)
	}
	if got, want := snap.GaugeNames(), []string{"g.a", "g.m", "g.z"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("GaugeNames = %v", got)
	}
	if got, want := snap.HistogramNames(), []string{"h.a", "h.m", "h.z"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("HistogramNames = %v", got)
	}
}
