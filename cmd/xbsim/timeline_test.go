package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/jobqueue"
	"xbsim/internal/obs"
	"xbsim/internal/serve"
)

// `xbsim trace <id>` with -spool must reconstruct a finished job's
// timeline offline — by job ID or trace ID — and -json must round-trip
// through the timeline schema.
func TestCmdTraceTimelineFromSpool(t *testing.T) {
	// Run one tiny job to completion so the spool holds a journal.
	dir := t.TempDir()
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"mcf"}
	cfg.TargetOps = 600_000
	cfg.IntervalSize = 8_000
	q, err := jobqueue.Open(context.Background(), jobqueue.Options{Dir: dir, Concurrency: 1, Workers: 2, Observer: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := q.SubmitTraced(jobqueue.Request{Benchmarks: []string{"mcf"}, Config: cfg},
		jobqueue.Submission{TraceID: "t-cli-test"})
	if err != nil {
		t.Fatal(err)
	}
	for {
		got, err := q.Get(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == jobqueue.StateDone {
			break
		}
		if got.State == jobqueue.StateFailed {
			t.Fatalf("job failed: %s", got.Error)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	for _, key := range []string{j.ID, "t-cli-test"} {
		table := runCmd(t, "trace", "-spool", dir, key)
		for _, want := range []string{"trace t-cli-test", "job " + j.ID, "queue-wait", "run", "job.done"} {
			if !strings.Contains(table, want) {
				t.Fatalf("trace %s table missing %q:\n%s", key, want, table)
			}
		}
	}

	jsonOut := runCmd(t, "trace", "-spool", dir, "-json", j.ID)
	var tl obs.Timeline
	if err := json.Unmarshal([]byte(jsonOut), &tl); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, jsonOut)
	}
	if tl.TraceID != "t-cli-test" || tl.JobID != j.ID || len(tl.Entries) == 0 {
		t.Fatalf("timeline JSON = trace %q job %q %d entries", tl.TraceID, tl.JobID, len(tl.Entries))
	}
	// Round-trip: re-marshaling the parsed timeline reproduces the bytes.
	again, err := json.MarshalIndent(&tl, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(again)) != strings.TrimSpace(jsonOut) {
		t.Fatal("-json output does not round-trip through obs.Timeline")
	}

	var sb strings.Builder
	if err := run(context.Background(), "trace", []string{"t-cli-test"}, &sb); err == nil {
		t.Fatal("timeline mode without -url/-spool accepted")
	}
	if err := run(context.Background(), "trace", []string{"-spool", dir, "t-unknown"}, &sb); err == nil {
		t.Fatal("unknown key accepted")
	}
}

// The offline timeline of a drained spool must carry the job's stage
// spans, and equal the live service's timeline entry for entry: both
// are one read of the same journal.
func TestCmdTraceSpoolMatchesLive(t *testing.T) {
	dir := t.TempDir()
	s, err := serve.Start(context.Background(), serve.Options{Addr: "127.0.0.1:0", Spool: dir, Concurrency: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"mcf"}
	cfg.TargetOps = 600_000
	cfg.IntervalSize = 8_000
	j, _, err := s.Queue().SubmitTraced(jobqueue.Request{Benchmarks: []string{"mcf"}, Config: cfg},
		jobqueue.Submission{TraceID: "t-live-offline"})
	if err != nil {
		t.Fatal(err)
	}
	// The job reads done just before its job.done event is journaled, so
	// poll the live timeline itself until that event is in.
	var live obs.Timeline
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		live = obs.Timeline{} // a reused slice would keep stale omitempty fields
		if err := json.Unmarshal([]byte(runCmd(t, "trace", "-url", "http://"+s.Addr(), "-json", j.ID)), &live); err != nil {
			t.Fatal(err)
		}
		if n := len(live.Entries); n > 0 && live.Entries[n-1].Kind == "job.done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished; timeline state %q", live.State)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var offline obs.Timeline
	if err := json.Unmarshal([]byte(runCmd(t, "trace", "-spool", dir, "-json", j.ID)), &offline); err != nil {
		t.Fatal(err)
	}

	fullSims := 0
	for _, e := range offline.Entries {
		if e.Kind == "span" && e.Stage == "stage.full_sim" && !e.Open && e.DurUS > 0 {
			fullSims++
		}
	}
	if fullSims == 0 {
		t.Fatal("offline timeline has no ended stage.full_sim spans")
	}
	a, _ := json.Marshal(live.Entries)
	b, _ := json.Marshal(offline.Entries)
	if string(a) != string(b) {
		t.Fatalf("offline entries differ from live:\nlive    %s\noffline %s", a, b)
	}
}
