package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// eventClock returns a deterministic recorder clock advancing 1s per
// reading, starting at the epoch.
func eventClock() func() time.Time {
	t := time.Unix(0, 0).UTC()
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

func TestRecorderSequencesAndStamps(t *testing.T) {
	r := NewRecorder(8)
	r.SetClock(eventClock())
	r.Record(PipelineEvent{Kind: "stage.start", Benchmark: "gcc", Stage: "profile"})
	r.Record(PipelineEvent{Kind: "stage.finish", Benchmark: "gcc", Stage: "profile"})
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Time.IsZero() {
			t.Fatalf("event %d not timestamped", i)
		}
	}
	if evs[1].Time.Before(evs[0].Time) {
		t.Fatal("timestamps not monotone")
	}
}

// The log is append-only: the capacity given to NewRecorder is only a
// starting size, every event past it is kept, and EventsAfter(seq)
// returns exactly the events after seq.
func TestRecorderAppendOnlyPastCapacity(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(PipelineEvent{Kind: "stage.start", Detail: fmt.Sprintf("ev%d", i)})
	}
	evs := r.Events()
	if len(evs) != 10 {
		t.Fatalf("%d events kept, want all 10", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) || ev.Detail != fmt.Sprintf("ev%d", i) {
			t.Fatalf("entry %d = seq %d detail %q", i, ev.Seq, ev.Detail)
		}
	}
	tail := r.EventsAfter(7)
	if len(tail) != 3 || tail[0].Seq != 8 || tail[2].Seq != 10 {
		t.Fatalf("EventsAfter(7) = %+v, want seq 8..10", tail)
	}
	if past := r.EventsAfter(99); past == nil || len(past) != 0 {
		t.Fatalf("EventsAfter past the end = %#v, want empty", past)
	}
}

// NewRecorder(0) must not preallocate room for events: a served job
// makes one per run, so its cost is paid per job.
func TestNewRecorderAllocatesNoRing(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewRecorder(0)
		}
	})
	if n := res.AllocedBytesPerOp(); n >= 1024 {
		t.Fatalf("NewRecorder(0) allocates %d B, want under 1 KiB", n)
	}
}

// Concurrent writers (run under -race in CI) must each get a unique
// sequence number and never corrupt the log.
func TestRecorderConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 200
	r := NewRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(PipelineEvent{Kind: "fault", Benchmark: fmt.Sprintf("b%d", w)})
				r.Events()
				r.BenchmarkStates()
			}
		}(w)
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != writers*perWriter {
		t.Fatalf("%d events kept, want all %d", len(evs), writers*perWriter)
	}
	for i := range evs {
		if evs[i].Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d", i, evs[i].Seq)
		}
	}
	if evs[len(evs)-1].Seq != writers*perWriter {
		t.Fatalf("last seq = %d, want %d", evs[len(evs)-1].Seq, writers*perWriter)
	}
}

// Events streamed as JSONL must decode back bit-identically.
func TestRecorderJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(2)
	r.SetClock(eventClock())
	r.SetOutput(&buf)
	want := []PipelineEvent{
		{Kind: "stage.start", Benchmark: "gcc", Stage: "profile"},
		{Kind: "fault", Benchmark: "gcc", Stage: "profile.task", Detail: "panic"},
		{Kind: "stage.fail", Benchmark: "gcc", Stage: "profile"},
		{Kind: "progress", Benchmark: "gcc", Done: 1, Total: 5},
	}
	for _, ev := range want {
		r.Record(ev)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i, ev := range got {
		w := want[i]
		w.Seq = uint64(i + 1)
		// SetClock took the clock's first reading as the span epoch.
		if !ev.Time.Equal(time.Unix(int64(i+2), 0).UTC()) {
			t.Fatalf("event %d time = %v, want %v", i, ev.Time, time.Unix(int64(i+2), 0).UTC())
		}
		ev.Time, w.Time = time.Time{}, time.Time{}
		if !reflect.DeepEqual(ev, w) {
			t.Fatalf("event %d round-tripped to %+v, want %+v", i, ev, w)
		}
	}
}

func TestRecorderBenchmarkStatesAndSuiteProgress(t *testing.T) {
	r := NewRecorder(8)
	r.Record(PipelineEvent{Kind: "stage.start", Benchmark: "gcc", Stage: "profile", Binary: "32u"})
	r.Record(PipelineEvent{Kind: "stage.start", Benchmark: "apsi", Stage: "compile"})
	r.Record(PipelineEvent{Kind: "progress", Benchmark: "gcc", Stage: "done", Done: 1, Total: 2})
	states := r.BenchmarkStates()
	if len(states) != 2 {
		t.Fatalf("%d benchmark states, want 2", len(states))
	}
	if st := states["gcc"]; st.Stage != "done" || st.Kind != "progress" || st.Seq != 3 {
		t.Fatalf("gcc state = %+v, want latest event (stage done, seq 3)", st)
	}
	if st := states["apsi"]; st.Stage != "compile" || st.Binary != "" {
		t.Fatalf("apsi state = %+v", st)
	}
	done, total := r.SuiteProgress()
	if done != 1 || total != 2 {
		t.Fatalf("suite progress = %d/%d, want 1/2", done, total)
	}
}

// A nil recorder — and an observer without one — must discard
// everything without panicking.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(PipelineEvent{Kind: "fault"})
	r.SetOutput(&bytes.Buffer{})
	r.SetClock(time.Now)
	if r.Events() != nil || r.EventsAfter(0) != nil {
		t.Fatal("nil recorder not inert")
	}
	if r.BenchmarkStates() != nil {
		t.Fatal("nil recorder returned states")
	}
	if d, tot := r.SuiteProgress(); d != 0 || tot != 0 {
		t.Fatal("nil recorder returned progress")
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	o := &Observer{} // no Events attached
	o.Emit(PipelineEvent{Kind: "fault"})
	o.Emit(PipelineEvent{Kind: "progress", Benchmark: "gcc", Stage: "profile"})
	var nilObs *Observer
	nilObs.Emit(PipelineEvent{Kind: "fault"})
}

// A "progress" event goes to the log and renders on the progress sink;
// other kinds only go to the log.
func TestEmitProgressFeedsLogAndProgress(t *testing.T) {
	var lines bytes.Buffer
	o := &Observer{Events: NewRecorder(0), Progress: NewProgress(&lines)}
	o.Emit(PipelineEvent{Kind: "progress", Benchmark: "gcc", Binary: "32u", Stage: "profile"})
	o.Emit(PipelineEvent{Kind: "stage.start", Benchmark: "gcc", Stage: "profile"})
	evs := o.Events.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	ev := evs[0]
	if ev.Kind != "progress" || ev.Benchmark != "gcc" || ev.Binary != "32u" || ev.Stage != "profile" {
		t.Fatalf("recorded %+v", ev)
	}
	if got := lines.String(); got != "xbsim: gcc (32u) profile\n" {
		t.Fatalf("progress lines = %q", got)
	}
}
