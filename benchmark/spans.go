package main

import (
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Group is the
// unit of work the call served — a benchmark of a batch replay, one
// submission of the serve load — and becomes the Chrome trace lane.
type span struct {
	ID, Parent int
	Group      int
	Name       string
	Start, End time.Time
	// Alloc is the bytes the process allocated during the call; only
	// measured on serial replays, where it belongs to the call alone.
	Alloc uint64
}

// spanLog keeps the benchmark's spans in memory until exit. A nil
// *spanLog records nothing, so untraced runs pay no bookkeeping.
type spanLog struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	groups map[int]string
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), groups: map[int]string{}}
}

// name labels a group's lane in the written trace.
func (l *spanLog) name(group int, label string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.groups[group] = label
	l.mu.Unlock()
}

// add records a finished span.
func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
}

// open starts a span whose children are recorded before it ends; the
// returned function ends it.
func (l *spanLog) open(group, parent int, name string) (id int, end func()) {
	if l == nil {
		return 0, func() {}
	}
	l.mu.Lock()
	id = len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: time.Now()})
	l.mu.Unlock()
	return id, func() {
		l.mu.Lock()
		l.spans[id-1].End = time.Now()
		l.mu.Unlock()
	}
}

// measured is the cost of one serial layer call.
type measured struct {
	Dur   time.Duration
	Alloc uint64
}

// call runs fn as one serial layer call: it reads the allocation
// counter around it and records a span when the log is non-nil.
func (l *spanLog) call(group, parent int, name string, fn func() error) (measured, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	m := measured{Dur: end.Sub(start), Alloc: m1.TotalAlloc - m0.TotalAlloc}
	l.add(span{Parent: parent, Group: group, Name: name, Start: start, End: end, Alloc: m.Alloc})
	return m, err
}

// chromeEvent is one Chrome trace_event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto): one complete event per span, one lane
// per group, parent links in args.
func (l *spanLog) writeChrome(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	events := make([]chromeEvent, 0, len(l.spans)+len(l.groups))
	groups := make([]int, 0, len(l.groups))
	for g := range l.groups {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: g,
			Args: map[string]any{"name": l.groups[g]}})
	}
	us := func(t time.Time) float64 { return float64(t.Sub(l.epoch).Nanoseconds()) / 1e3 }
	for _, s := range l.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Alloc > 0 {
			args["alloc_bytes"] = s.Alloc
		}
		events = append(events, chromeEvent{Name: s.Name, Ph: "X", TS: us(s.Start),
			Dur: us(s.End) - us(s.Start), PID: 1, TID: s.Group, Args: args})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}
