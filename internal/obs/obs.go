// Package obs is the pipeline's observability subsystem: a metrics
// registry (counters, gauges, histograms), an append-only event log
// that records pipeline events, progress updates and wall-time spans,
// and a progress renderer, bundled into an Observer that travels
// through the pipeline on a context.Context.
//
// The design constraint is that observation must cost nothing when off.
// Every method on every type is nil-safe: a nil *Observer, *Registry,
// *Recorder, *Progress, *Counter, *Gauge, *Histogram, or *Span is a
// valid no-op sink, so instrumented code never branches on "is
// observability enabled" — it just calls through, and the nil receivers
// return immediately without allocating. Hot loops (per-block
// execution) are never instrumented per event; instrumentation tallies
// locally and flushes aggregate deltas into the registry at stage
// boundaries.
//
// Metric names are a stable interface; see the "Observability" section of
// README.md for the catalogue.
package obs

import "context"

// Observer bundles the observation channels. Any field may be nil to
// disable that channel; a nil *Observer disables everything.
type Observer struct {
	// Metrics receives counter/gauge/histogram updates.
	Metrics *Registry
	// Progress renders "progress" events as lines.
	Progress *Progress
	// Events is the run's event log: Emit calls and span start/end
	// events land here; without it spans are off.
	Events *Recorder
}

// New returns an Observer with a fresh registry and event log (no
// progress sink; attach one to the Progress field if wanted).
func New() *Observer {
	return &Observer{Metrics: NewRegistry(), Events: NewRecorder(0)}
}

// ctxKey keys the Observer in a context.
type ctxKey struct{}

// spanKey keys the current span in a context (for parent linkage).
type spanKey struct{}

// With returns a context carrying the observer. A nil observer returns
// ctx unchanged.
func With(ctx context.Context, o *Observer) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, o)
}

// From returns the context's observer, or nil when none is attached.
func From(ctx context.Context) *Observer {
	o, _ := ctx.Value(ctxKey{}).(*Observer)
	return o
}

// Counter returns the named counter, or nil when metrics are off.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge, or nil when metrics are off.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram, or nil when metrics are off.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}

// Emit records a structured event in the event log, if one is
// attached, and renders "progress" events on the progress sink. The
// recorder stamps Seq and Time.
func (o *Observer) Emit(ev PipelineEvent) {
	if o == nil {
		return
	}
	o.Events.Record(ev)
	if ev.Kind == "progress" {
		o.Progress.Report(ev)
	}
}

// StartSpan opens a span named name in the context's event log; detail
// is an optional free-form annotation (binary name, seed, ...). It
// returns a derived context (carrying the new span for parent linkage)
// and the span itself. Without an observer or event log it returns
// (ctx, nil) — and a nil *Span's methods are no-ops — so callers never
// need to check.
func StartSpan(ctx context.Context, name, detail string) (context.Context, *Span) {
	o := From(ctx)
	if o == nil || o.Events == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	s := o.Events.startSpan(name, detail, parent)
	return context.WithValue(ctx, spanKey{}, s), s
}
