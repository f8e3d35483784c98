// Package pool provides the bounded worker pool that parallelizes the
// inside of one benchmark pipeline: per-binary profile walks, the
// SimPoint k-sweep, k-means restarts, and per-binary evaluation.
//
// The pool is built for deterministic fan-out. Tasks are identified by
// index, every task derives its randomness from a per-index seeded
// stream (xrand.SplitIndexed), and callers collect results into
// index-addressed slices — so the output of a parallel run is
// bit-for-bit identical to the serial run, regardless of scheduling.
// The pool itself only guarantees the part it can: every index runs
// exactly once, and errors are joined in index order.
//
// Concurrency is bounded with a caller-participates token scheme: a
// Pool with N workers holds N-1 helper tokens, and Run always executes
// tasks on the calling goroutine while spawning at most as many helper
// goroutines as there are free tokens. Because the caller never blocks
// waiting for a token, nested Run calls (the k-sweep calling k-means
// restarts, several benchmarks sharing one pool) cannot deadlock and
// cannot multiply the worker budget: the whole tree of nested calls is
// limited to N-1 extra goroutines beyond its callers.
package pool

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"xbsim/internal/obs"
)

// PanicError is a panic recovered from one task, attributed to its index
// slot. Isolating panics this way keeps one broken task from killing the
// process (and, with helper goroutines, from leaking the worker token the
// panicking goroutine held): the panic becomes an ordinary error joined
// in index order like any other task failure.
type PanicError struct {
	// Index is the task slot that panicked (-1 for Protect).
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

// Error implements error, including the captured stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Unwrap exposes the panic value when it was an error, so errors.Is/As
// see through recovered panics (e.g. an injected fault that panicked).
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// protect runs fn(i), converting a panic into a *PanicError. The recover
// lives here — below the pool's token bookkeeping — so a panicking task
// unwinds no further than its own call frame: helper goroutines keep
// their deferred token release on the normal path and the process stays
// alive.
func protect(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Protect runs fn, converting a panic into a *PanicError with index -1.
// It is the single-call form of the pool's panic isolation, for callers
// running one protected region outside a task fan-out.
func Protect(fn func() error) error {
	return protect(-1, func(int) error { return fn() })
}

// metrics is the pool's optional resource accounting (see Instrument).
// An uninstrumented pool pays only a monotonic clock read guarded by the
// enabled check. Instrumentation never changes results: the pool's output
// is index-addressed and bit-identical for any schedule.
type metrics struct {
	// tasks counts tasks executed.
	tasks *obs.Counter
	// busy tracks the number of tasks currently executing; busyPeak
	// keeps its high-water mark.
	busy, busyPeak *obs.Gauge
	// queueWait observes, per task, the microseconds between its Run
	// call starting and the task being claimed by a worker — the time
	// work spent waiting for pool capacity.
	queueWait *obs.Histogram
}

// enabled reports whether the sinks are attached.
func (m metrics) enabled() bool { return m.tasks != nil }

// Pool is a bounded worker pool. A nil *Pool is valid and runs
// everything serially on the calling goroutine, so call sites never
// branch on "is parallelism enabled".
type Pool struct {
	// tokens grants the right to run one helper goroutine; capacity is
	// workers-1 because the calling goroutine always works too.
	tokens  chan struct{}
	workers int

	// m is the optional metrics wiring; busy backs its busy gauge.
	m    metrics
	busy atomic.Int64
}

// New returns a pool that runs at most workers tasks concurrently.
// workers <= 0 means runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, tokens: make(chan struct{}, workers-1)}
}

// Workers returns the pool's concurrency bound (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Instrument publishes the pool's resource metrics to o's registry:
// pool.tasks, pool.busy_workers, pool.busy_peak and pool.queue_wait_us. A
// nil observer leaves the pool uninstrumented. Call before sharing the
// pool across goroutines; a nil pool ignores the call.
func (p *Pool) Instrument(o *obs.Observer) {
	if p == nil {
		return
	}
	p.m = metrics{
		tasks:     o.Counter("pool.tasks"),
		busy:      o.Gauge("pool.busy_workers"),
		busyPeak:  o.Gauge("pool.busy_peak"),
		queueWait: o.Histogram("pool.queue_wait_us"),
	}
}

// runTask executes one claimed task through the metrics envelope.
func (p *Pool) runTask(i int, fn func(i int) error, queued time.Time) error {
	if p != nil && p.m.enabled() {
		if !queued.IsZero() {
			p.m.queueWait.Observe(uint64(time.Since(queued).Microseconds()))
		}
		p.m.tasks.Inc()
		p.m.busy.Add(1)
		p.m.busyPeak.SetMax(float64(p.busy.Add(1)))
		defer func() {
			p.busy.Add(-1)
			p.m.busy.Add(-1)
		}()
	}
	return protect(i, fn)
}

// Run executes fn(i) for every i in [0, n). Indices are claimed by an
// atomic counter, so which goroutine runs which index is scheduling-
// dependent — deterministic output therefore requires fn to write its
// result into an index-addressed slot, which every call site in this
// repository does. Run returns after all n calls finished, with the
// non-nil errors joined in index order (errors.Join). A task that
// panics does not crash the process or leak its worker token: the panic
// is recovered and joined as a *PanicError carrying the task index and
// the captured stack.
func (p *Pool) Run(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	// queued anchors the queue-wait measurement; zero when the pool is
	// uninstrumented so the serial fast path stays clock-free.
	var queued time.Time
	if p != nil && p.m.enabled() {
		queued = time.Now()
	}
	errs := make([]error, n)
	if p == nil || p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			errs[i] = p.runTask(i, fn, queued)
		}
		return errors.Join(errs...)
	}

	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = p.runTask(i, fn, queued)
		}
	}

	// Spawn helpers only while tokens are free; never block on one. The
	// select's default arm is what makes nested Run calls safe: with no
	// token available the caller just does all the work itself.
	var wg sync.WaitGroup
spawn:
	for i := 0; i < n-1; i++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-p.tokens }()
				work()
			}()
		default:
			break spawn
		}
	}
	work()
	wg.Wait()
	return errors.Join(errs...)
}

// Map runs fn for every index in [0, n) through the pool and returns
// the results as an index-addressed slice: out[i] is fn(i)'s value no
// matter which worker produced it. On error the slice is still
// returned with every successful index filled in.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.Run(n, func(i int) error {
		v, err := fn(i)
		out[i] = v
		return err
	})
	return out, err
}
