package obs

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tlEvents builds a crash-spanning event history: submit → start →
// (crash) recover → start again with a checkpoint resume → done. Seq
// restarts at the recovery, as a real journal's would across process
// lifetimes.
func tlEvents(epoch time.Time) []PipelineEvent {
	at := func(sec int) time.Time { return epoch.Add(time.Duration(sec) * time.Second) }
	return []PipelineEvent{
		{Seq: 1, Time: at(0), Kind: "job.submit", Trace: "t-main", Detail: "submitted by default"},
		{Seq: 2, Time: at(1), Kind: "job.start", Trace: "t-main"},
		{Seq: 3, Time: at(2), Kind: "stage.start", Benchmark: "gcc", Stage: "profile", Trace: "t-main"},
		// process died here; next lifetime's recorder restarts Seq
		{Seq: 1, Time: at(10), Kind: "job.recover", Trace: "t-main"},
		{Seq: 2, Time: at(12), Kind: "job.start", Trace: "t-main"},
		{Seq: 3, Time: at(13), Kind: "checkpoint", Benchmark: "gcc", Detail: "loaded", Trace: "t-main"},
		{Seq: 4, Time: at(20), Kind: "job.done", Trace: "t-main"},
		{Seq: 5, Time: at(25), Kind: "job.cache", Trace: "t-late", Detail: "cache hit; canonical trace t-main"},
	}
}

func TestBuildTimelinePhases(t *testing.T) {
	epoch := time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)
	tl := BuildTimeline(TimelineInput{
		TraceID: "t-main", JobID: "j-1", Tenant: "acme", State: "done",
		Links:  []string{"t-late"},
		Events: tlEvents(epoch),
	})

	var names []string
	for _, p := range tl.Phases {
		names = append(names, p.Name)
	}
	// Run #1 never terminates (the crash ate it), so it contributes no
	// "run" phase; the recovery opens a second queue-wait instead. Phases
	// appear in event order, so the mid-run checkpoint resume lands
	// before its run phase closes.
	want := []string{"queue-wait", "queue-wait", "checkpoint-resume", "run", "cache-lookup"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("phases = %v, want %v", names, want)
	}

	// First queue-wait: admission to first start = 1s.
	if p := tl.Phases[0]; p.DurUS != time.Second.Microseconds() {
		t.Fatalf("admission queue-wait = %dus, want 1s", p.DurUS)
	}
	// Recovery queue-wait is measured from the recovery transition: 2s.
	if p := tl.Phases[1]; p.DurUS != (2 * time.Second).Microseconds() {
		t.Fatalf("recovery queue-wait = %dus, want 2s", p.DurUS)
	}
	// The completed run is attempt 2 (the crash consumed attempt 1's
	// job.start) and spans start→done = 8s.
	run := tl.Phase("run")
	if run == nil || run.DurUS != (8*time.Second).Microseconds() || !strings.Contains(run.Detail, "attempt 2") {
		t.Fatalf("run phase = %+v, want 8s attempt 2", run)
	}
	if cp := tl.Phase("checkpoint-resume"); cp == nil || cp.Detail != "gcc" {
		t.Fatalf("checkpoint-resume = %+v", cp)
	}
	if cl := tl.Phase("cache-lookup"); cl == nil {
		t.Fatal("cache-lookup phase missing")
	}
}

// Span start and end events fold into one row at the span's start, in
// journal order among the other events. A span number is read within
// its process's run of the journal: after the restart (Seq back to 1)
// the new process's span 1 must not close the dead process's open span 1.
func TestBuildTimelineMergesSpansInTimeOrder(t *testing.T) {
	epoch := time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	evs := []PipelineEvent{
		{Seq: 1, Time: at(0), Kind: "job.submit", Trace: "t-main"},
		{Seq: 2, Time: at(1000), Kind: "job.start", Trace: "t-main"},
		{Seq: 3, Time: at(2000), Kind: "span.start", Stage: "benchmark", Span: 1, Trace: "t-main"},
		{Seq: 4, Time: at(3000), Kind: "span.start", Stage: "stage.profile", Span: 2, Parent: 1, Trace: "t-main"},
		{Seq: 5, Time: at(5000), Kind: "span.end", Stage: "stage.profile", Span: 2, Trace: "t-main"},
		// process died inside span 1; the next one restarts Seq and span numbers
		{Seq: 1, Time: at(10000), Kind: "job.recover", Trace: "t-main"},
		{Seq: 2, Time: at(12000), Kind: "job.start", Trace: "t-main"},
		{Seq: 3, Time: at(12500), Kind: "span.start", Stage: "suite", Detail: "swim", Span: 1, Trace: "t-main"},
		{Seq: 4, Time: at(19500), Kind: "span.end", Stage: "suite", Span: 1, Trace: "t-main"},
		{Seq: 5, Time: at(20000), Kind: "job.done", Trace: "t-main"},
		{Seq: 6, Time: at(25000), Kind: "job.cache", Trace: "t-late"},
	}
	tl := BuildTimeline(TimelineInput{TraceID: "t-main", JobID: "j-1", Events: evs})
	if len(tl.Entries) != len(evs)-2 {
		t.Fatalf("%d entries, want one per event less the two span ends", len(tl.Entries))
	}
	for i := 1; i < len(tl.Entries); i++ {
		if tl.Entries[i].Time.Before(tl.Entries[i-1].Time) {
			t.Fatalf("entries out of time order at %d: %v then %v",
				i, tl.Entries[i-1].Time, tl.Entries[i].Time)
		}
	}
	spans := map[string]TimelineEntry{}
	for _, e := range tl.Entries {
		if e.Kind == "span" {
			spans[e.Stage] = e
		}
	}
	if len(spans) != 3 {
		t.Fatalf("span rows = %+v, want benchmark, stage.profile and suite", spans)
	}
	if b := spans["benchmark"]; !b.Open || b.DurUS != 0 || !b.Time.Equal(at(2000)) {
		t.Fatalf("dead process's span = %+v, want open at 2s", b)
	}
	if p := spans["stage.profile"]; p.Open || p.DurUS != (2*time.Second).Microseconds() {
		t.Fatalf("profile span = %+v, want ended after 2s", p)
	}
	s := spans["suite"]
	if s.Open || s.DurUS != (7*time.Second).Microseconds() || s.Detail != "swim" ||
		s.Trace != "t-main" || !s.Time.Equal(at(12500)) {
		t.Fatalf("suite span = %+v, want 7s from 12.5s with its detail", s)
	}
	if tl.Phase("run") == nil || len(tl.Phases) != 4 {
		t.Fatalf("phases = %+v, want two queue-waits, a run and a cache lookup", tl.Phases)
	}

	// The coalesced submission's row keeps its own trace.
	if last := tl.Entries[len(tl.Entries)-1]; last.Kind != "job.cache" || last.Trace != "t-late" {
		t.Fatalf("cache entry = %+v, want trace t-late", last)
	}
}

// A journal written before spans were journaled (no span events, a
// restart that appends a cache hit at Seq 1) must still build its
// timeline and the phases that version derived from it.
func TestBuildTimelineFromParentJournal(t *testing.T) {
	evs, err := ReadJournal(filepath.Join("testdata", "parent_journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 37 {
		t.Fatalf("read %d events, want 37", len(evs))
	}
	tl := BuildTimeline(TimelineInput{TraceID: "t-parent", JobID: "j-86137a466cca0ed6", Events: evs})
	if len(tl.Entries) != len(evs) {
		t.Fatalf("%d entries for %d events", len(tl.Entries), len(evs))
	}
	type phase struct {
		name   string
		durUS  int64
		detail string
	}
	want := []phase{
		{"queue-wait", 1692, ""},
		{"run", 134427, "attempt 1: done"},
		{"cache-lookup", 0, "cache hit; canonical trace t-parent"},
		{"cache-lookup", 0, "cache hit; canonical trace t-parent"},
	}
	if len(tl.Phases) != len(want) {
		t.Fatalf("phases = %+v, want %d", tl.Phases, len(want))
	}
	for i, p := range tl.Phases {
		if (phase{p.Name, p.DurUS, p.Detail}) != want[i] {
			t.Fatalf("phase %d = %+v, want %+v", i, p, want[i])
		}
	}
}

func TestTimelineWriteTable(t *testing.T) {
	epoch := time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)
	tl := BuildTimeline(TimelineInput{
		TraceID: "t-main", JobID: "j-1", Tenant: "acme", State: "done",
		Links:  []string{"t-late"},
		Events: tlEvents(epoch),
	})
	var buf bytes.Buffer
	if err := tl.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"trace t-main", "job j-1", "tenant acme", "state done",
		"linked traces: t-late", "queue-wait", "run", "checkpoint-resume", "job.done"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

// A profile stage reports one progress event per binary; each must keep
// its binary in the timeline, as JSON and as a table row.
func TestTimelineKeepsBinary(t *testing.T) {
	epoch := time.Date(2026, 1, 2, 3, 0, 0, 0, time.UTC)
	tl := BuildTimeline(TimelineInput{TraceID: "t-bin", Events: []PipelineEvent{
		{Seq: 1, Time: epoch, Kind: "progress", Benchmark: "swim", Binary: "swim.32u", Stage: "profile"},
		{Seq: 2, Time: epoch, Kind: "progress", Benchmark: "swim", Binary: "swim.64o", Stage: "profile"},
	}})
	if got := tl.Entries[1].Binary; got != "swim.64o" {
		t.Fatalf("entry binary = %q, want swim.64o", got)
	}
	var buf bytes.Buffer
	if err := tl.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	rows := lines[len(lines)-2:]
	if rows[0] == rows[1] {
		t.Fatalf("per-binary rows render identically: %q", rows[0])
	}
	for i, bin := range []string{"swim.32u", "swim.64o"} {
		if !strings.Contains(rows[i], "swim/"+bin+"/profile") {
			t.Fatalf("row %d = %q, want swim/%s/profile", i, rows[i], bin)
		}
	}
}
