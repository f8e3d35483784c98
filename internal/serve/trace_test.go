package serve

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"xbsim/internal/jobqueue"
	"xbsim/internal/obs"
	"xbsim/internal/program"
)

// A client-supplied trace must ride the submission end to end: echoed
// in the response header and body, resolvable at /jobs/{id}/timeline by
// job ID or trace ID, and visible as per-tenant series on /metrics.
func TestTraceHeaderAndTimelineEndpoint(t *testing.T) {
	s := startTestServer(t, Options{})
	base := "http://" + s.Addr()

	body, _ := json.Marshal(SubmitRequest{Request: jobqueue.Request{
		Benchmarks: []string{"mcf"}, Config: testConfig(),
	}})
	req, err := http.NewRequest(http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Xbsim-Trace", "t-e2e-test")
	req.Header.Set("X-Xbsim-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Xbsim-Trace"); got != "t-e2e-test" {
		t.Fatalf("X-Xbsim-Trace response header = %q", got)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.TraceID != "t-e2e-test" || sub.Job.TraceID != "t-e2e-test" || sub.Job.Tenant != "acme" {
		t.Fatalf("submit response trace=%q job trace=%q tenant=%q",
			sub.TraceID, sub.Job.TraceID, sub.Job.Tenant)
	}
	if sub.TimelineURL != "/jobs/"+sub.Job.ID+"/timeline" {
		t.Fatalf("timeline URL = %q", sub.TimelineURL)
	}
	waitResult(t, base, sub.Job.ID)

	// Timeline by job ID and by trace ID resolve to the same view.
	for _, key := range []string{sub.Job.ID, "t-e2e-test"} {
		tresp, tdata := get(t, base+"/jobs/"+key+"/timeline")
		if tresp.StatusCode != http.StatusOK {
			t.Fatalf("timeline(%s) status %d: %s", key, tresp.StatusCode, tdata)
		}
		var tl obs.Timeline
		if err := json.Unmarshal(tdata, &tl); err != nil {
			t.Fatal(err)
		}
		if tl.JobID != sub.Job.ID || tl.TraceID != "t-e2e-test" {
			t.Fatalf("timeline(%s) job=%q trace=%q", key, tl.JobID, tl.TraceID)
		}
		if tl.Phase("queue-wait") == nil || tl.Phase("run") == nil {
			t.Fatalf("timeline(%s) phases = %+v", key, tl.Phases)
		}
	}
	if nf, _ := get(t, base+"/jobs/t-nonexistent/timeline"); nf.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown timeline status %d, want 404", nf.StatusCode)
	}

	// The SLO histograms and per-tenant counters reach the Prometheus
	// exposition.
	mresp, mdata := get(t, base+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	for _, want := range []string{
		"xbsim_serve_submit_to_result_ms_bucket",
		"xbsim_serve_run_ms_count",
		"xbsim_serve_queue_wait_ms_count",
		`xbsim_serve_tenant_submissions_total{tenant="acme"} 1`,
		`xbsim_serve_tenant_completed_total{tenant="acme"} 1`,
		"xbsim_serve_queue_retry_after_sec",
		"xbsim_serve_journal_rotations_total",
	} {
		if !strings.Contains(string(mdata), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// ?trace=/?tenant= are the curl-friendly fallback for the headers;
	// the same work resubmitted under a new trace is a cache hit whose
	// trace links onto the canonical job.
	resp2, data2 := postJSON(t, base+"/jobs?trace=t-via-query&tenant=beta", SubmitRequest{Request: jobqueue.Request{
		Benchmarks: []string{"mcf"}, Config: testConfig(),
	}})
	if resp2.StatusCode != http.StatusOK { // duplicate work: cache hit
		t.Fatalf("query submit status %d: %s", resp2.StatusCode, data2)
	}
	var sub2 SubmitResponse
	if err := json.Unmarshal(data2, &sub2); err != nil {
		t.Fatal(err)
	}
	if !sub2.Cached || sub2.TraceID != "t-e2e-test" {
		t.Fatalf("cached submit: cached=%v canonical trace=%q", sub2.Cached, sub2.TraceID)
	}
	tresp, tdata := get(t, base+"/jobs/t-via-query/timeline")
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("timeline by coalesced trace: status %d: %s", tresp.StatusCode, tdata)
	}
}

// Client-observed submit-to-result latencies and the server's live
// serve.submit_to_result_ms histogram measure the same jobs from the two
// ends of the HTTP pipe; their quantiles must agree within one
// power-of-two bucket. The client here submits six fresh spec jobs, then
// polls every pending result each 50ms and stops a job's clock at its
// first 200. The jobs are sized to run well past that poll interval, so
// that the poll cannot by itself span two buckets.
func TestClientQuantilesMatchHistogram(t *testing.T) {
	o := obs.New()
	s := startTestServer(t, Options{Concurrency: 2, Observer: o})
	base := "http://" + s.Addr()
	cfg := testConfig() // spec jobs ignore TargetOps; lengthen the clustering
	cfg.IntervalSize = 2_000
	cfg.Restarts = 50

	type pending struct {
		id    string
		start time.Time
	}
	var jobs []pending
	for i := 0; i < 6; i++ { // all fresh: every submission lands in the histogram
		start := time.Now()
		resp, data := postJSON(t, base+"/jobs", SubmitRequest{Request: jobqueue.Request{
			Specs: []program.Spec{program.RandomSpec(11, i)}, Config: cfg,
		}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, data)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(data, &sub); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, pending{sub.Job.ID, start})
	}
	var latencies []time.Duration
	deadline := time.Now().Add(120 * time.Second)
	for len(jobs) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d job(s) never produced a result", len(jobs))
		}
		time.Sleep(50 * time.Millisecond)
		waiting := jobs[:0]
		for _, j := range jobs {
			resp, data := get(t, base+"/jobs/"+j.id+"/result")
			switch resp.StatusCode {
			case http.StatusOK:
				latencies = append(latencies, time.Since(j.start))
			case http.StatusConflict:
				waiting = append(waiting, j)
			default:
				t.Fatalf("result %s: status %d: %s", j.id, resp.StatusCode, data)
			}
		}
		jobs = waiting
	}
	slices.Sort(latencies)
	// Nearest rank, the rule QuantileBucket applies to bucket counts.
	quantileUS := func(q float64) uint64 {
		return uint64(latencies[int(q*float64(len(latencies))+0.5)-1].Microseconds())
	}

	h := o.Metrics.Snapshot().Histograms["serve.submit_to_result_ms"]
	if h.Count != 6 {
		t.Fatalf("histogram count = %d, want 6", h.Count)
	}
	check := func(name string, clientUS uint64, q float64) {
		clientBucket := bits.Len64(clientUS / 1000) // µs → ms, then the log2 bucket
		serverBucket := h.QuantileBucket(q)
		diff := clientBucket - serverBucket
		if diff < 0 {
			diff = -diff
		}
		// The client side adds submit overhead and up to one 50ms poll
		// interval; one power-of-two bucket absorbs that.
		if diff > 1 {
			t.Errorf("%s: client bucket %d (%.1fms) vs server bucket %d (<=%dms) — disagree by %d",
				name, clientBucket, float64(clientUS)/1000, serverBucket, h.QuantileBound(q), diff)
		}
	}
	check("p50", quantileUS(0.50), 0.50)
	check("p99", quantileUS(0.99), 0.99)
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
