package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span is one timed region of the pipeline, recorded in the observer's
// event log as a "span.start" event when opened and a "span.end" event
// when ended. End it exactly once; a nil *Span ignores all calls.
type Span struct {
	rec *Recorder
	// id is the span's 1-based number in rec.
	id int
	// name identifies the stage ("stage.clustering", "exec.run", ...).
	name  string
	ended bool
}

// startSpan numbers a new span and records its start event.
func (r *Recorder) startSpan(name, detail string, parent *Span) *Span {
	s := &Span{rec: r, name: name}
	r.mu.Lock()
	r.spans++
	s.id = r.spans
	ev := PipelineEvent{Kind: "span.start", Stage: name, Detail: detail, Span: s.id}
	if parent != nil {
		ev.Parent = parent.id
	}
	r.recordLocked(ev)
	r.mu.Unlock()
	return s
}

// End closes the span by recording its end event. Safe to call on nil
// and idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	if !s.ended {
		s.ended = true
		r.recordLocked(PipelineEvent{Kind: "span.end", Stage: s.name, Span: s.id})
	}
	r.mu.Unlock()
}

// SpanView is one span derived from the log's span events.
type SpanView struct {
	// ID is the 1-based span number; Parent is the parent's ID (0 = root).
	ID, Parent int
	// Name and Detail identify the span.
	Name, Detail string
	// Start is the offset from the recorder's epoch; Dur the span length.
	Start, Dur time.Duration
	// Ended reports whether End was called.
	Ended bool
}

// Spans derives every span from the log's span events, in start order.
// A nil recorder returns nil.
func (r *Recorder) Spans() []SpanView {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	views := make([]SpanView, 0, r.spans)
	for _, ev := range r.events {
		switch ev.Kind {
		case "span.start":
			views = append(views, SpanView{ID: ev.Span, Parent: ev.Parent, Name: ev.Stage,
				Detail: ev.Detail, Start: ev.Time.Sub(r.epoch)})
		case "span.end": // only Span.End writes one, after its start
			v := &views[ev.Span-1]
			v.Dur, v.Ended = ev.Time.Sub(r.epoch)-v.Start, true
		}
	}
	return views
}

// chromeEvent is one Chrome trace_event entry ("X" = complete event).
// Field order is fixed so the JSON output is stable for golden tests.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event JSON object.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	Unit        string        `json:"displayTimeUnit"`
}

// WriteChromeTrace emits the log's spans as Chrome trace_event JSON
// (load it at chrome://tracing or https://ui.perfetto.dev). Each root
// span and its subtree share one thread lane, so concurrent benchmarks
// render as parallel rows. Unended spans are written with their elapsed
// time so a trace dumped after a failure still loads.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	views := r.Spans()
	r.mu.Lock()
	nowDur := r.now().Sub(r.epoch)
	r.mu.Unlock()

	// Lane per root: a span's tid is its outermost ancestor's ID.
	lane := make(map[int]int, len(views))
	for _, v := range views {
		if v.Parent == 0 {
			lane[v.ID] = v.ID
		} else {
			lane[v.ID] = lane[v.Parent]
		}
	}
	trace := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(views)), Unit: "ms"}
	for _, v := range views {
		dur := v.Dur
		if !v.Ended {
			dur = nowDur - v.Start
		}
		ev := chromeEvent{
			Name: v.Name,
			Cat:  "xbsim",
			Ph:   "X",
			Ts:   v.Start.Microseconds(),
			Dur:  dur.Microseconds(),
			Pid:  1,
			Tid:  lane[v.ID],
		}
		if v.Detail != "" {
			ev.Args = map[string]string{"detail": v.Detail}
		}
		trace.TraceEvents = append(trace.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(trace)
}

// AutoFlush arranges for the Chrome trace to be written to w exactly
// once: either when ctx is cancelled (a goroutine flushes immediately,
// so an interrupted run still leaves a complete, loadable JSON file —
// unended spans are emitted with their elapsed time) or when the
// returned flush function is called on the normal exit path, whichever
// happens first. The flush function is idempotent and returns the write
// error of whichever flush actually ran. A nil recorder returns a no-op
// flush.
func (r *Recorder) AutoFlush(ctx context.Context, w io.Writer) (flush func() error) {
	if r == nil {
		return func() error { return nil }
	}
	var once sync.Once
	var err error
	flush = func() error {
		once.Do(func() { err = r.WriteChromeTrace(w) })
		return err
	}
	go func() {
		<-ctx.Done()
		flush()
	}()
	return flush
}

// treeNode aggregates same-named sibling spans for the timing tree.
type treeNode struct {
	name     string
	count    int
	total    time.Duration
	details  []string
	children []int // span IDs folded into this node
}

// WriteTree renders a human-readable stage-timing tree. Same-named
// siblings are folded into one line with a count and total duration:
//
//	benchmark (gcc)                 812.4ms
//	  stage.compile                   3.1ms
//	  stage.profile ×4              210.9ms
//	    exec.run ×4                 208.2ms
func (r *Recorder) WriteTree(w io.Writer) error {
	views := r.Spans()
	if len(views) == 0 {
		return nil
	}
	byParent := map[int][]SpanView{}
	for _, v := range views {
		byParent[v.Parent] = append(byParent[v.Parent], v)
	}
	if _, err := fmt.Fprintln(w, "stage timings:"); err != nil {
		return err
	}
	return writeLevel(w, byParent, []SpanView{{ID: 0}}, 0)
}

// writeLevel prints the folded children of the given parent group, then
// recurses into each fold.
func writeLevel(w io.Writer, byParent map[int][]SpanView, parents []SpanView, depth int) error {
	// Collect children of every parent in the group, folding by name.
	var order []string
	folds := map[string]*treeNode{}
	for _, p := range parents {
		for _, c := range byParent[p.ID] {
			n := folds[c.Name]
			if n == nil {
				n = &treeNode{name: c.Name}
				folds[c.Name] = n
				order = append(order, c.Name)
			}
			n.count++
			n.total += c.Dur
			n.children = append(n.children, c.ID)
			if c.Detail != "" {
				n.details = append(n.details, c.Detail)
			}
		}
	}
	for _, name := range order {
		n := folds[name]
		label := n.name
		switch {
		case n.count == 1 && len(n.details) == 1:
			label = fmt.Sprintf("%s (%s)", n.name, n.details[0])
		case n.count > 1:
			label = fmt.Sprintf("%s ×%d", n.name, n.count)
		}
		if _, err := fmt.Fprintf(w, "  %s%-*s %12s\n",
			strings.Repeat("  ", depth), 46-2*depth, label, formatDur(n.total)); err != nil {
			return err
		}
		group := make([]SpanView, len(n.children))
		for i, id := range n.children {
			group[i] = SpanView{ID: id}
		}
		if err := writeLevel(w, byParent, group, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// formatDur renders a duration with millisecond precision.
func formatDur(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// StageNames returns the sorted set of distinct span names recorded so
// far — convenient for asserting stage coverage in tests.
func (r *Recorder) StageNames() []string {
	seen := map[string]bool{}
	for _, v := range r.Spans() {
		seen[v.Name] = true
	}
	return sortedKeys(seen)
}
