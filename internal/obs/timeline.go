package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Timeline reconstruction: given one job's durable event journal (spool
// state transitions, pipeline events and span start/end events, possibly
// spanning a crash and recovery), BuildTimeline lays it out as one
// ordered view and derives the coarse phases an operator asks about
// first: how long the job waited for a slot, how long it ran, where a
// checkpoint resume or a cache lookup short-circuited work. The package
// deliberately takes plain inputs — obs sits below jobqueue, so the
// queue adapts its state into a TimelineInput rather than the other way
// around.

// TimelineInput is one job's identity and its journal.
type TimelineInput struct {
	// TraceID is the job's canonical trace; JobID, Tenant, State, and
	// Links annotate the view (Links are coalesced submissions' traces).
	TraceID string
	JobID   string
	Tenant  string
	State   string
	Links   []string
	// Events is the job's journal in record order (ReadJournal). Each
	// process's run of it starts again at Seq 1.
	Events []PipelineEvent
}

// TimelineEntry is one timeline row: a journal event, or one span with
// its start and end events folded together at its start time.
type TimelineEntry struct {
	Time time.Time `json:"time"`
	// Kind is the event kind, or "span" for a span row.
	Kind      string `json:"kind"`
	Benchmark string `json:"benchmark,omitempty"`
	Binary    string `json:"binary,omitempty"`
	// Stage is the event's stage, or a span row's span name.
	Stage  string `json:"stage,omitempty"`
	Detail string `json:"detail,omitempty"`
	// DurUS is the span duration (ended span rows only). Open marks a
	// span with no end event: still running, or its process died.
	DurUS int64 `json:"durUs,omitempty"`
	Open  bool  `json:"open,omitempty"`
	// Trace is the row's correlation ID (a coalesced submission's rows
	// carry its own trace, linking back to the canonical one).
	Trace string `json:"trace,omitempty"`
	// Seq is the row's (span row: start event's) sequence number; it
	// restarts with each process.
	Seq uint64 `json:"seq,omitempty"`
}

// TimelinePhase is one derived coarse phase of the job's life.
type TimelinePhase struct {
	// Name is "queue-wait", "run", "checkpoint-resume", or
	// "cache-lookup".
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	// DurUS is the phase length; instantaneous markers
	// (checkpoint-resume, cache-lookup) report 0.
	DurUS  int64  `json:"durUs"`
	Detail string `json:"detail,omitempty"`
}

// Timeline is one job's reconstructed end-to-end view.
type Timeline struct {
	TraceID string          `json:"traceId"`
	JobID   string          `json:"jobId,omitempty"`
	Tenant  string          `json:"tenant,omitempty"`
	State   string          `json:"state,omitempty"`
	Links   []string        `json:"links,omitempty"`
	Entries []TimelineEntry `json:"entries"`
	Phases  []TimelinePhase `json:"phases"`
}

// BuildTimeline lays the journal out as timeline rows, in journal
// order, and derives phases from the job lifecycle events:
//
//   - queue-wait: each enqueue (job.submit, job.resubmit, job.recover)
//     to the following job.start — a recovered job's wait is measured
//     from the recovery transition, not the original admission.
//   - run: each job.start to its terminal job.done / job.fail /
//     job.respool (an attempt interrupted by drain).
//   - checkpoint-resume: every checkpoint event whose Detail is
//     "loaded" — a benchmark answered from a previous attempt's state.
//   - cache-lookup: every job.cache event — a submission answered from
//     the content-addressed result cache without running.
//
// A span end event closes the row of the span with its number in the
// same process's run of the journal; a Seq no larger than the one
// before it starts the next run.
func BuildTimeline(in TimelineInput) *Timeline {
	tl := &Timeline{
		TraceID: in.TraceID,
		JobID:   in.JobID,
		Tenant:  in.Tenant,
		State:   in.State,
		Links:   append([]string(nil), in.Links...),
		Entries: make([]TimelineEntry, 0, len(in.Events)),
	}

	var waitStart, runStart time.Time
	var lastSeq uint64
	open := map[int]int{} // span number → row, within this process's run
	attempt := 0
	for _, ev := range in.Events {
		if ev.Seq <= lastSeq {
			clear(open)
		}
		lastSeq = ev.Seq
		row := TimelineEntry{
			Time: ev.Time, Kind: ev.Kind, Benchmark: ev.Benchmark, Binary: ev.Binary,
			Stage: ev.Stage, Detail: ev.Detail, Trace: ev.Trace, Seq: ev.Seq,
		}
		switch ev.Kind {
		case "span.start":
			open[ev.Span] = len(tl.Entries)
			row.Kind, row.Open = "span", true
		case "span.end":
			if i, ok := open[ev.Span]; ok {
				e := &tl.Entries[i]
				e.DurUS, e.Open = ev.Time.Sub(e.Time).Microseconds(), false
				delete(open, ev.Span)
			}
			continue
		case "job.submit", "job.resubmit", "job.recover":
			waitStart = ev.Time
		case "job.start":
			if !waitStart.IsZero() {
				tl.Phases = append(tl.Phases, TimelinePhase{
					Name: "queue-wait", Start: waitStart,
					DurUS: ev.Time.Sub(waitStart).Microseconds(),
				})
				waitStart = time.Time{}
			}
			runStart = ev.Time
			attempt++
		case "job.done", "job.fail", "job.respool":
			if !runStart.IsZero() {
				tl.Phases = append(tl.Phases, TimelinePhase{
					Name: "run", Start: runStart,
					DurUS:  ev.Time.Sub(runStart).Microseconds(),
					Detail: fmt.Sprintf("attempt %d: %s", attempt, strings.TrimPrefix(ev.Kind, "job.")),
				})
				runStart = time.Time{}
			}
		case "checkpoint":
			if ev.Detail == "loaded" {
				tl.Phases = append(tl.Phases, TimelinePhase{
					Name: "checkpoint-resume", Start: ev.Time, Detail: ev.Benchmark,
				})
			}
		case "job.cache":
			tl.Phases = append(tl.Phases, TimelinePhase{
				Name: "cache-lookup", Start: ev.Time, Detail: ev.Detail,
			})
		}
		tl.Entries = append(tl.Entries, row)
	}
	return tl
}

// Phase returns the first phase with the given name, or nil.
func (t *Timeline) Phase(name string) *TimelinePhase {
	for i := range t.Phases {
		if t.Phases[i].Name == name {
			return &t.Phases[i]
		}
	}
	return nil
}

// WriteTable renders the timeline as a human-readable table: a header
// line, the derived phases, and every entry in journal order.
func (t *Timeline) WriteTable(w io.Writer) error {
	ew := fmt.Fprintf
	if _, err := ew(w, "trace %s", t.TraceID); err != nil {
		return err
	}
	if t.JobID != "" {
		ew(w, "  job %s", t.JobID)
	}
	if t.Tenant != "" {
		ew(w, "  tenant %s", t.Tenant)
	}
	if t.State != "" {
		ew(w, "  state %s", t.State)
	}
	ew(w, "\n")
	if len(t.Links) > 0 {
		ew(w, "linked traces: %s\n", strings.Join(t.Links, ", "))
	}
	if len(t.Phases) > 0 {
		ew(w, "phases:\n")
		for _, p := range t.Phases {
			ew(w, "  %-18s %s %10.1fms  %s\n",
				p.Name, p.Start.Format(time.RFC3339Nano), float64(p.DurUS)/1000, p.Detail)
		}
	}
	ew(w, "entries:\n")
	for _, e := range t.Entries {
		var parts []string
		for _, p := range []string{e.Benchmark, e.Binary, e.Stage} {
			if p != "" {
				parts = append(parts, p)
			}
		}
		loc := strings.Join(parts, "/")
		detail := e.Detail
		switch {
		case e.Open:
			detail = "open " + detail
		case e.Kind == "span":
			detail = fmt.Sprintf("%.1fms %s", float64(e.DurUS)/1000, detail)
		}
		if _, err := ew(w, "  %-30s %-14s %-28s %s\n",
			e.Time.Format(time.RFC3339Nano), e.Kind, loc, strings.TrimSpace(detail)); err != nil {
			return err
		}
	}
	return nil
}
