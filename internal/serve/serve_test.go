package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/jobqueue"
	"xbsim/internal/program"
)

// testConfig is a small, fast experiment configuration.
func testConfig() experiment.Config {
	cfg := experiment.QuickConfig()
	cfg.TargetOps = 600_000
	cfg.IntervalSize = 8_000
	cfg.Parallelism = 2
	cfg.Workers = 2
	return cfg
}

func startTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.Spool == "" {
		opts.Spool = t.TempDir()
	}
	if opts.Concurrency == 0 {
		opts.Concurrency = 1
	}
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s, err := Start(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// waitResult polls /jobs/{id}/result until 200 or the deadline.
func waitResult(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := get(t, base+"/jobs/"+id+"/result")
		switch resp.StatusCode {
		case http.StatusOK:
			return data
		case http.StatusConflict:
			time.Sleep(25 * time.Millisecond)
		default:
			t.Fatalf("result: status %d: %s", resp.StatusCode, data)
		}
	}
	t.Fatalf("job %s result never became available", id)
	return nil
}

// The full client flow: submit over HTTP, poll the result, get bytes
// identical to a direct pipeline run, and have a duplicate submission
// answered from the cache with 200 instead of 202.
func TestSubmitPollResultAndCacheHit(t *testing.T) {
	s := startTestServer(t, Options{})
	base := "http://" + s.Addr()
	sub := SubmitRequest{Request: jobqueue.Request{Benchmarks: []string{"mcf"}, Config: testConfig()}}

	resp, data := postJSON(t, base+"/jobs", sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cached || sr.Job.ID == "" {
		t.Fatalf("submit response: %+v", sr)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+sr.Job.ID {
		t.Errorf("Location = %q", loc)
	}

	got := waitResult(t, base, sr.Job.ID)
	cfg := testConfig()
	cfg.Benchmarks = []string{"mcf"}
	suite, err := experiment.RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := suite.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served result differs from direct run:\n--- served ---\n%.300s\n--- direct ---\n%.300s", got, want.Bytes())
	}

	// Duplicate: 200 + cached, same content-addressed ID.
	resp, data = postJSON(t, base+"/jobs", sub)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit: status %d: %s", resp.StatusCode, data)
	}
	var dup SubmitResponse
	if err := json.Unmarshal(data, &dup); err != nil {
		t.Fatal(err)
	}
	if !dup.Cached || dup.Job.ID != sr.Job.ID {
		t.Fatalf("duplicate response: cached=%v id=%s want %s", dup.Cached, dup.Job.ID, sr.Job.ID)
	}

	// The events endpoint reports the job's lifecycle.
	resp, data = get(t, base+"/jobs/"+sr.Job.ID+"/events")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), "done:") {
		t.Errorf("events: status %d body %.200s", resp.StatusCode, data)
	}
	// List and health views know the job.
	if _, data = get(t, base+"/jobs"); !strings.Contains(string(data), sr.Job.ID) {
		t.Errorf("list missing job: %.200s", data)
	}
	resp, _ = get(t, base+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", resp.StatusCode)
	}
	resp, _ = get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics: status %d", resp.StatusCode)
	}
}

// A full pending queue must be rejected with 429 and a Retry-After
// hint, not silently dropped or queued unbounded.
func TestAdmissionControl429(t *testing.T) {
	s := startTestServer(t, Options{MaxPending: 1})
	base := "http://" + s.Addr()

	// Fill the single scheduler slot with a deliberately long job, then
	// the single pending slot; the third distinct submission must bounce.
	submit := func(bench string, ops uint64) (*http.Response, []byte) {
		cfg := testConfig()
		cfg.TargetOps = ops
		return postJSON(t, base+"/jobs", SubmitRequest{Request: jobqueue.Request{
			Benchmarks: []string{bench}, Config: cfg}})
	}
	resp, data := submit("gcc", 60_000_000)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 0: status %d: %s", resp.StatusCode, data)
	}
	var first SubmitResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, base, first.Job.ID)
	if resp, data = submit("mcf", 600_000); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: status %d: %s", resp.StatusCode, data)
	}
	resp, data = submit("swim", 600_000)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 2: status %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// waitRunning polls until the job is claimed by a scheduler slot.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, data := get(t, base+"/jobs/"+id)
		if strings.Contains(string(data), `"state": "running"`) {
			return
		}
		if strings.Contains(string(data), `"state": "failed"`) {
			t.Fatalf("job failed while waiting: %.300s", data)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

// Graceful shutdown: readiness flips to 503, in-flight submissions are
// rejected as draining, the interrupted job is durably re-spooled, and
// a new server on the same spool finishes it.
func TestGracefulShutdownAndResume(t *testing.T) {
	spool := t.TempDir()
	s := startTestServer(t, Options{Spool: spool})
	base := "http://" + s.Addr()

	// A longer-than-instant job keeps the drain window open; the restart
	// re-runs it in full, so it stays small enough to finish quickly.
	cfg := testConfig()
	cfg.TargetOps = 4_000_000
	resp, data := postJSON(t, base+"/jobs", SubmitRequest{Request: jobqueue.Request{
		Benchmarks: []string{"swim"}, Config: cfg}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sr SubmitResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get(t, base+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Errorf("readyz before drain: status %d", resp.StatusCode)
	}
	waitRunning(t, base, sr.Job.ID)

	// Begin the drain concurrently and observe the draining posture
	// through the still-serving HTTP listener. The server may finish
	// shutting down between checks, so a refused connection is also a
	// valid "no longer ready" observation.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if resp, err := http.Get(base + "/readyz"); err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("readyz while draining: status %d, want 503", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The job survived shutdown in the journal; a new server resumes it
	// to completion.
	s2 := startTestServer(t, Options{Spool: spool})
	base2 := "http://" + s2.Addr()
	got := waitResult(t, base2, sr.Job.ID)
	if len(got) == 0 {
		t.Fatal("resumed job served empty result")
	}
}

// resolve must honor query parameters, presets, and the random-spec
// shorthand, and strip the queue-owned config knobs.
func TestResolveSubmission(t *testing.T) {
	req := func(target string, body SubmitRequest) SubmitRequest {
		r := httptest.NewRequest(http.MethodPost, target, nil)
		if err := resolve(r, &body); err != nil {
			t.Fatalf("resolve(%s): %v", target, err)
		}
		return body
	}

	// Bare submission: quick preset, whole suite.
	got := req("/jobs", SubmitRequest{})
	if got.Config.TargetOps != experiment.QuickConfig().TargetOps || len(got.Benchmarks) == 0 {
		t.Errorf("bare submission resolved to %+v", got.Request)
	}
	// Preset + benchmark narrowing via query.
	got = req("/jobs?preset=quick&benchmarks=swim", SubmitRequest{})
	if len(got.Benchmarks) != 1 || got.Benchmarks[0] != "swim" {
		t.Errorf("benchmarks = %v", got.Benchmarks)
	}
	// Random specs: content-derived work, no benchmarks.
	got = req("/jobs?random=7&n=2", SubmitRequest{})
	if len(got.Specs) != 2 || len(got.Benchmarks) != 0 {
		t.Errorf("random resolved to %d specs, %d benchmarks", len(got.Specs), len(got.Benchmarks))
	}
	if got.Specs[0].Name() != program.RandomSpec(7, 0).Normalize().Name() {
		t.Errorf("spec 0 = %s", got.Specs[0].Name())
	}
	// Queue-owned knobs are stripped even if the client sets them.
	body := SubmitRequest{Request: jobqueue.Request{Config: experiment.Config{CheckpointDir: "/tmp/evil", TargetOps: 1}}}
	if got = req("/jobs", body); got.Config.CheckpointDir != "" || got.Config.SharedPool != nil {
		t.Errorf("wall-clock knobs survived: %+v", got.Config)
	}
	// Unknown preset is a client error.
	r := httptest.NewRequest(http.MethodPost, "/jobs?preset=nope", nil)
	var sr SubmitRequest
	if err := resolve(r, &sr); err == nil {
		t.Error("unknown preset accepted")
	}
}

// A client that still sends the retired Retry and StageTimeout config
// fields is accepted, and lands on the same job as the request without
// them: both fields were always outside the config fingerprint.
func TestRetiredConfigFieldsIgnored(t *testing.T) {
	s := startTestServer(t, Options{})
	base := "http://" + s.Addr()
	plain, err := json.Marshal(SubmitRequest{Request: jobqueue.Request{Benchmarks: []string{"swim"}, Config: testConfig()}})
	if err != nil {
		t.Fatal(err)
	}
	var withRetired map[string]any
	if err := json.Unmarshal(plain, &withRetired); err != nil {
		t.Fatal(err)
	}
	cfg := withRetired["config"].(map[string]any)
	cfg["Retry"] = map[string]any{"MaxRetries": 3, "BaseDelay": 5000000, "MaxDelay": 250000000}
	cfg["StageTimeout"] = 10000000000

	var ids []string
	for _, body := range []any{withRetired, json.RawMessage(plain)} {
		resp, data := postJSON(t, base+"/jobs", body)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
		}
		var sr SubmitResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sr.Job.ID)
	}
	if ids[0] == "" || ids[0] != ids[1] {
		t.Fatalf("job IDs %q (retired fields) and %q (without) differ", ids[0], ids[1])
	}
}
