package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock returns a deterministic clock advancing 1ms per reading.
func fakeClock() func() time.Time {
	t := time.Unix(0, 0).UTC()
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

// fakeLog returns an empty event log on the fake clock.
func fakeLog() *Recorder {
	r := NewRecorder(0)
	r.SetClock(fakeClock())
	return r
}

// buildFixtureTrace records a small two-benchmark span tree with the fake
// clock — shared by the tree, ordering, and golden-file tests.
func buildFixtureTrace() *Recorder {
	tr := fakeLog()
	o := &Observer{Events: tr}
	ctx := With(context.Background(), o)

	bctx, bench := StartSpan(ctx, "benchmark", "gcc")
	_, compile := StartSpan(bctx, "stage.compile", "")
	compile.End()
	pctx, prof := StartSpan(bctx, "stage.profile", "")
	for i := 0; i < 2; i++ {
		_, run := StartSpan(pctx, "exec.run", "gcc.32u")
		run.End()
	}
	prof.End()
	bench.End()

	b2ctx, bench2 := StartSpan(ctx, "benchmark", "apsi")
	_, c2 := StartSpan(b2ctx, "stage.compile", "")
	c2.End()
	bench2.End()
	return tr
}

func TestSpanNestingAndOrdering(t *testing.T) {
	tr := buildFixtureTrace()
	views := tr.Spans()
	if len(views) != 7 {
		t.Fatalf("%d spans recorded, want 7", len(views))
	}
	// IDs are 1-based and assigned in start order.
	for i, v := range views {
		if v.ID != i+1 {
			t.Fatalf("span %d has ID %d", i, v.ID)
		}
	}
	// Parent linkage: compile and profile under benchmark 1; exec.runs
	// under profile; second compile under benchmark 2.
	wantParent := []int{0, 1, 1, 3, 3, 0, 6}
	for i, v := range views {
		if v.Parent != wantParent[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", v.ID, v.Name, v.Parent, wantParent[i])
		}
	}
	for _, v := range views {
		if !v.Ended {
			t.Errorf("span %d (%s) not ended", v.ID, v.Name)
		}
		if v.Dur <= 0 {
			t.Errorf("span %d (%s) has non-positive duration %v", v.ID, v.Name, v.Dur)
		}
	}
	// Start offsets strictly increase with the fake clock.
	for i := 1; i < len(views); i++ {
		if views[i].Start <= views[i-1].Start {
			t.Errorf("span %d starts at %v, not after %v", views[i].ID, views[i].Start, views[i-1].Start)
		}
	}
}

func TestSpanEndIdempotentAndNilSafe(t *testing.T) {
	var s *Span
	s.End() // must not panic

	tr := fakeLog()
	o := &Observer{Events: tr}
	_, sp := StartSpan(With(context.Background(), o), "stage.compile", "")
	sp.End()
	first := tr.Spans()[0].Dur
	sp.End() // second End must not extend the duration
	if got := tr.Spans()[0].Dur; got != first {
		t.Fatalf("duration changed on second End: %v -> %v", first, got)
	}
	if n := len(tr.Events()); n != 2 {
		t.Fatalf("%d events after a double End, want one start and one end", n)
	}
}

func TestStartSpanWithoutObserver(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "stage.compile", "")
	if sp != nil {
		t.Fatal("span created without observer")
	}
	if ctx != context.Background() {
		t.Fatal("context rewrapped without observer")
	}
	sp.End() // no-op
}

func TestStageNames(t *testing.T) {
	tr := buildFixtureTrace()
	got := tr.StageNames()
	want := []string{"benchmark", "exec.run", "stage.compile", "stage.profile"}
	if len(got) != len(want) {
		t.Fatalf("StageNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StageNames = %v, want %v", got, want)
		}
	}
}

func TestWriteTree(t *testing.T) {
	tr := buildFixtureTrace()
	var sb strings.Builder
	if err := tr.WriteTree(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"stage timings:",
		"benchmark ×2",
		"stage.compile ×2",
		"stage.profile",
		"exec.run ×2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
	// Children are indented deeper than parents.
	lines := strings.Split(out, "\n")
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	var benchLine, execLine string
	for _, l := range lines {
		if strings.Contains(l, "benchmark") {
			benchLine = l
		}
		if strings.Contains(l, "exec.run") {
			execLine = l
		}
	}
	if indent(execLine) <= indent(benchLine) {
		t.Errorf("exec.run not nested under benchmark:\n%s", out)
	}
}

// The Chrome trace JSON is a stable interface: golden-file tested with a
// deterministic clock. Regenerate with: go test ./internal/obs -update
func TestChromeTraceGolden(t *testing.T) {
	tr := buildFixtureTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}
}

func TestChromeTraceLanes(t *testing.T) {
	tr := buildFixtureTrace()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Spans 1-5 belong to the first benchmark (lane 1), spans 6-7 to the
	// second (lane 6).
	if strings.Count(out, `"tid": 1`) != 5 {
		t.Errorf("want 5 events in lane 1:\n%s", out)
	}
	if strings.Count(out, `"tid": 6`) != 2 {
		t.Errorf("want 2 events in lane 6:\n%s", out)
	}
}

// An unended span must still appear in the dump (with elapsed time), so a
// trace written after a failure loads in the viewer.
func TestChromeTraceUnendedSpan(t *testing.T) {
	tr := fakeLog()
	o := &Observer{Events: tr}
	_, sp := StartSpan(With(context.Background(), o), "benchmark", "gcc")
	_ = sp // never ended
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name": "benchmark"`) {
		t.Fatalf("unended span missing:\n%s", buf.String())
	}
	// Started at the clock's 2nd reading, written at its 3rd: 1ms elapsed.
	if !strings.Contains(buf.String(), `"dur": 1000`) || !strings.Contains(buf.String(), `"detail": "gcc"`) {
		t.Fatalf("unended span lacks its elapsed time or detail:\n%s", buf.String())
	}
}

// Spans live in the event log: a start event carrying the detail when
// opened, an end event when ended, both numbered by the span.
func TestSpansAreLogEvents(t *testing.T) {
	tr := buildFixtureTrace()
	var got []string
	for _, ev := range tr.Events() {
		got = append(got, fmt.Sprintf("%s %s %d/%d %s", ev.Kind, ev.Stage, ev.Span, ev.Parent, ev.Detail))
	}
	want := []string{
		"span.start benchmark 1/0 gcc",
		"span.start stage.compile 2/1 ",
		"span.end stage.compile 2/0 ",
		"span.start stage.profile 3/1 ",
		"span.start exec.run 4/3 gcc.32u",
		"span.end exec.run 4/0 ",
		"span.start exec.run 5/3 gcc.32u",
		"span.end exec.run 5/0 ",
		"span.end stage.profile 3/0 ",
		"span.end benchmark 1/0 ",
		"span.start benchmark 6/0 apsi",
		"span.start stage.compile 7/6 ",
		"span.end stage.compile 7/0 ",
		"span.end benchmark 6/0 ",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("log:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// A nil event log traces nothing: no spans, empty writes.
func TestNilTracerIsNoop(t *testing.T) {
	var tr *Recorder
	if tr.Spans() != nil {
		t.Error("nil recorder has spans")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
	if err := tr.WriteTree(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

// StartSpan on a context without an observer must not allocate — the
// default-off tracing contract.
func TestStartSpanNoopZeroAllocations(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		_, sp := StartSpan(ctx, "stage.compile", "gcc.32u")
		sp.End()
	}); n != 0 {
		t.Fatalf("noop StartSpan allocates %v", n)
	}
}

func BenchmarkNoopStartSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "stage.compile", "")
		sp.End()
	}
}

// syncBuffer is a mutex-guarded buffer safe for the AutoFlush goroutine
// to write while the test polls it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Cancelling the context must flush a complete, parseable Chrome trace
// even though the run (and its spans) never finished — the mid-run-exit
// guarantee for -trace-out.
func TestAutoFlushOnCancel(t *testing.T) {
	tr := fakeLog()
	o := &Observer{Events: tr}
	ctx, cancel := context.WithCancel(With(context.Background(), o))
	StartSpan(ctx, "benchmark", "gcc")
	// The span is deliberately never ended: the process is "mid-run".

	var buf syncBuffer
	flush := tr.AutoFlush(ctx, &buf)
	if buf.String() != "" {
		t.Fatal("flushed before cancellation")
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for buf.String() == "" {
		if time.Now().After(deadline) {
			t.Fatal("trace not flushed after context cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &trace); err != nil {
		t.Fatalf("cancellation flush is not complete JSON: %v\n%s", err, buf.String())
	}
	if len(trace.TraceEvents) != 1 || trace.TraceEvents[0]["name"] != "benchmark" {
		t.Fatalf("trace events = %+v", trace.TraceEvents)
	}
	// The normal-exit flush must now be a no-op, not a second copy.
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"traceEvents"`); n != 1 {
		t.Fatalf("trace written %d times, want once", n)
	}
}

// On the normal exit path the returned flush writes the trace once,
// idempotently, and a nil event log hands back a working no-op.
func TestAutoFlushNormalExit(t *testing.T) {
	tr := buildFixtureTrace()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf syncBuffer
	flush := tr.AutoFlush(ctx, &buf)
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"traceEvents"`); n != 1 {
		t.Fatalf("trace written %d times, want once", n)
	}
	var nilTr *Recorder
	if err := nilTr.AutoFlush(ctx, &buf)(); err != nil {
		t.Fatal(err)
	}
}
