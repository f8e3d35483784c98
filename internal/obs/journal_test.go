package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRecorderTraceStamping(t *testing.T) {
	r := NewRecorder(8)
	r.SetTrace("t-canonical")
	r.Record(PipelineEvent{Kind: "stage.start"})
	r.Record(PipelineEvent{Kind: "job.coalesce", Trace: "t-other"})
	evs := r.Events()
	if evs[0].Trace != "t-canonical" {
		t.Fatalf("unstamped event trace = %q, want recorder's t-canonical", evs[0].Trace)
	}
	if evs[1].Trace != "t-other" {
		t.Fatalf("explicit event trace = %q, want its own t-other", evs[1].Trace)
	}
}

// The file journal must rotate at the cap: the live file renames to the
// .1 generation, a fresh file begins, the rotation counter ticks, and
// ReadJournal stitches both generations back in order.
func TestRecorderJournalRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	r := NewRecorder(4)
	r.SetClock(eventClock())
	rc := &Counter{}
	r.SetRotationCounter(rc)
	if err := r.SetOutputPath(path, 256); err != nil {
		t.Fatal(err)
	}
	const total = 40
	for i := 0; i < total; i++ {
		r.Record(PipelineEvent{Kind: "stage.start", Detail: fmt.Sprintf("ev%02d", i)})
	}
	if err := r.CloseOutput(); err != nil {
		t.Fatal(err)
	}
	if rc.Value() == 0 {
		t.Fatal("no rotation counted after 40 events at a 256-byte cap")
	}
	if _, err := os.Stat(RotatedPath(path)); err != nil {
		t.Fatalf("rotated generation missing: %v", err)
	}
	// Only the newest events survive (each rotation discards the prior
	// .1 generation), but the merged read must be in-order and contiguous
	// through the final event.
	evs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("merged journal is empty")
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("merged journal seq gap: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
	if last := evs[len(evs)-1]; last.Seq != total || last.Detail != fmt.Sprintf("ev%02d", total-1) {
		t.Fatalf("last journal event = seq %d %q, want seq %d ev%02d", last.Seq, last.Detail, total, total-1)
	}
}

func TestRotatedPath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"journal.jsonl", "journal.1.jsonl"},
		{"/a/b/j-1.jsonl", "/a/b/j-1.1.jsonl"},
		{"noext", "noext.1"},
	}
	for _, c := range cases {
		if got := RotatedPath(c.in); got != c.want {
			t.Fatalf("RotatedPath(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// A journal reopened across "restarts" must append, and ReadJournal of
// a never-written path must read as empty, not an error.
func TestRecorderJournalAppendsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	for run := 0; run < 2; run++ {
		r := NewRecorder(4)
		if err := r.SetOutputPath(path, 0); err != nil {
			t.Fatal(err)
		}
		r.Record(PipelineEvent{Kind: "stage.start", Detail: fmt.Sprintf("run%d", run)})
		if err := r.CloseOutput(); err != nil {
			t.Fatal(err)
		}
	}
	evs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Detail != "run0" || evs[1].Detail != "run1" {
		t.Fatalf("reopened journal = %+v, want run0 then run1", evs)
	}
	if evs, err := ReadJournal(filepath.Join(dir, "absent.jsonl")); err != nil || len(evs) != 0 {
		t.Fatalf("absent journal = %d events, %v; want empty, nil", len(evs), err)
	}
}

// A torn tail — the partial line a crash leaves behind — must cost only
// itself: every whole line before (and after) it still decodes.
func TestReadEventsToleratesTornLines(t *testing.T) {
	in := `{"seq":1,"time":"2026-01-02T03:04:05Z","kind":"job.submit"}
{"seq":2,"time":"2026-01-02T03:04:06Z","kind":"job.sta
{"seq":3,"time":"2026-01-02T03:04:07Z","kind":"job.done"}
{"seq":4,"time":"2026-01-02T03:0`
	evs, err := ReadEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Seq != 1 || evs[1].Seq != 3 {
		t.Fatalf("decoded %+v, want the two whole lines (seq 1, 3)", evs)
	}
}

// Stress: many writers appending while readers snapshot the log. Under
// -race this doubles as the locking proof; the assertions pin that
// every snapshot is the log's prefix (entry i has Seq i+1) and that no
// event is lost.
func TestRecorderConcurrentWritersAtCapacityStress(t *testing.T) {
	const writers, perWriter, capacity = 16, 500, 8
	r := NewRecorder(capacity)
	r.SetTrace("t-stress")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(PipelineEvent{Kind: "fault", Benchmark: fmt.Sprintf("b%d", w%4)})
				if i%25 == 0 {
					for k, ev := range r.Events() {
						if ev.Seq != uint64(k+1) {
							t.Errorf("snapshot entry %d has seq %d", k, ev.Seq)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	const total = writers * perWriter
	evs := r.Events()
	if len(evs) != total {
		t.Fatalf("log holds %d, want %d", len(evs), total)
	}
	if last := evs[len(evs)-1]; last.Seq != total {
		t.Fatalf("last seq = %d, want %d", last.Seq, total)
	}
	for _, ev := range evs {
		if ev.Trace != "t-stress" {
			t.Fatalf("event not trace-stamped: %+v", ev)
		}
	}
}
