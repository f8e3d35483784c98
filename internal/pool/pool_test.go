package pool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"xbsim/internal/obs"
)

func TestRunCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		counts := make([]atomic.Int64, 100)
		if err := p.Run(len(counts), func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestNilPoolIsSerial(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d", p.Workers())
	}
	order := []int{}
	if err := p.Run(5, func(i int) error {
		order = append(order, i) // safe: serial execution, no goroutines
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("nil pool ran out of order: %v", order)
		}
	}
}

func TestErrorsJoinedInIndexOrder(t *testing.T) {
	p := New(4)
	err := p.Run(10, func(i int) error {
		if i == 3 || i == 7 {
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	want := "task 3 failed\ntask 7 failed"
	if err.Error() != want {
		t.Fatalf("joined error = %q, want %q", err.Error(), want)
	}
}

func TestMapIsIndexAddressed(t *testing.T) {
	p := New(8)
	out, err := Map(p, 50, func(i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapKeepsSuccessesOnError(t *testing.T) {
	p := New(2)
	out, err := Map(p, 4, func(i int) (string, error) {
		if i == 2 {
			return "", errors.New("boom")
		}
		return fmt.Sprint(i), nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if out[0] != "0" || out[1] != "1" || out[3] != "3" {
		t.Fatalf("successful slots lost: %v", out)
	}
}

// Nested Run calls share the pool's budget and must not deadlock even
// when the nesting depth exceeds the worker count.
func TestNestedRunsDoNotDeadlock(t *testing.T) {
	p := New(2)
	var leaves atomic.Int64
	err := p.Run(4, func(int) error {
		return p.Run(4, func(int) error {
			return p.Run(4, func(int) error {
				leaves.Add(1)
				return nil
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := leaves.Load(); got != 64 {
		t.Fatalf("%d leaf tasks ran, want 64", got)
	}
}

// The helper-token scheme bounds concurrency: at most Workers tasks of
// one flat Run execute simultaneously.
func TestConcurrencyBounded(t *testing.T) {
	const workers = 3
	p := New(workers)
	var cur, peak atomic.Int64
	var mu sync.Mutex
	if err := p.Run(64, func(int) error {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		for i := 0; i < 1000; i++ { // widen the overlap window
			_ = i
		}
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent tasks, bound is %d", got, workers)
	}
}

// Index-addressed collection makes parallel output identical to serial
// output — the determinism contract every call site relies on.
func TestParallelMatchesSerial(t *testing.T) {
	serial, err := Map[int](nil, 200, func(i int) (int, error) { return i * 7 % 13, nil })
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(New(8), 200, func(i int) (int, error) { return i * 7 % 13, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

// An instrumented pool must account every task (count, queue wait,
// busy high-water mark) without changing results; an uninstrumented or
// nil pool must not touch the sinks.
func TestRunInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	o := &obs.Observer{Metrics: reg}
	p := New(4)
	p.Instrument(o)
	var ran atomic.Int64
	if err := p.Run(32, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 32 {
		t.Fatalf("ran %d tasks", ran.Load())
	}
	snap := reg.Snapshot()
	if got := snap.Counters["pool.tasks"]; got != 32 {
		t.Fatalf("pool.tasks = %d, want 32", got)
	}
	if got := snap.Histograms["pool.queue_wait_us"]; got.Count != 32 {
		t.Fatalf("queue_wait observations = %d, want 32", got.Count)
	}
	if got := snap.Gauges["pool.busy_workers"]; got != 0 {
		t.Fatalf("busy_workers settled at %v, want 0", got)
	}
	peak := snap.Gauges["pool.busy_peak"]
	if peak < 1 || peak > 4 {
		t.Fatalf("busy_peak = %v, want within [1, workers]", peak)
	}

	// Nested Run calls reuse the same instrumented pool without
	// double-counting the busy bookkeeping.
	if err := p.Run(2, func(i int) error {
		return p.Run(2, func(j int) error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Gauges["pool.busy_workers"]; got != 0 {
		t.Fatalf("busy_workers after nested runs = %v, want 0", got)
	}

	// A panicking task must still release its busy slot.
	err := p.Run(1, func(i int) error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not isolated: %v", err)
	}
	if got := reg.Snapshot().Gauges["pool.busy_workers"]; got != 0 {
		t.Fatalf("busy_workers leaked after panic: %v", got)
	}

	var nilPool *Pool
	nilPool.Instrument(o) // must not panic
	if err := nilPool.Run(4, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
