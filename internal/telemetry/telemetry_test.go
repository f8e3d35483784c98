package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xbsim/internal/obs"
)

// startTestServer boots a server on a free port with a populated
// observer and tears it down with the test.
func startTestServer(t *testing.T) (*Server, *obs.Observer) {
	t.Helper()
	o := obs.New()
	s, err := Start("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, o
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// /metrics must serve the registry's live state in the exposition
// format with the versioned content type.
func TestServerMetricsEndpoint(t *testing.T) {
	s, o := startTestServer(t)
	o.Counter("pipeline.benchmarks_failed").Add(2)
	o.Histogram("stage.mapping.duration_us").Observe(500)

	resp, body := get(t, "http://"+s.Addr()+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PrometheusContentType {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		"xbsim_pipeline_benchmarks_failed_total 2",
		"# TYPE xbsim_stage_mapping_duration_us histogram",
		`xbsim_stage_mapping_duration_us_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in:\n%s", want, body)
		}
	}
}

// /progress must reflect the recorder's suite counts, per-benchmark
// states, and the spans in its log.
func TestServerProgressEndpoint(t *testing.T) {
	s, o := startTestServer(t)
	o.Emit(obs.PipelineEvent{Kind: "progress", Benchmark: "gzip", Stage: "clustering", Done: 1, Total: 3})
	_, span := obs.StartSpan(obs.With(t.Context(), o), "stage.profile", "")
	span.End()

	_, body := get(t, "http://"+s.Addr()+"/progress")
	var view ProgressView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if view.Done != 1 || view.Total != 3 {
		t.Errorf("suite progress = %d/%d, want 1/3", view.Done, view.Total)
	}
	st, ok := view.Benchmarks["gzip"]
	if !ok || st.Stage != "clustering" {
		t.Errorf("benchmark state = %+v", view.Benchmarks)
	}
	if len(view.Spans) != 1 || view.Spans[0].Name != "stage.profile" {
		t.Errorf("spans = %+v", view.Spans)
	}
}

// /events must return the whole event log.
func TestServerEventsEndpoint(t *testing.T) {
	s, o := startTestServer(t)
	o.Emit(obs.PipelineEvent{Kind: "stage.start", Benchmark: "mcf", Stage: "vli"})
	o.Emit(obs.PipelineEvent{Kind: "fault", Stage: "vli", Detail: "error fault at invocation 0"})

	_, body := get(t, "http://"+s.Addr()+"/events")
	var view EventsView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(view.Events) != 2 || strings.Contains(body, "dropped") {
		t.Fatalf("events view = %+v", view)
	}
	if view.Events[1].Kind != "fault" || view.Events[1].Seq != 2 {
		t.Errorf("event = %+v", view.Events[1])
	}
}

// An in-flight /events?stream=1 request must deliver events as JSONL
// while the server runs and terminate cleanly — stream closed, body
// readable to EOF — when the server shuts down, rather than hanging
// Shutdown or tearing the connection mid-line.
func TestServerEventsStreamTerminatesOnShutdown(t *testing.T) {
	o := obs.New()
	s, err := Start("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	o.Emit(obs.PipelineEvent{Kind: "stage.start", Benchmark: "mcf", Stage: "vli"})

	resp, err := http.Get("http://" + s.Addr() + "/events?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}

	// Read the first streamed line, then emit another event and read it
	// too — proving the handler follows the log, not just snapshots it.
	dec := json.NewDecoder(resp.Body)
	var ev obs.PipelineEvent
	if err := dec.Decode(&ev); err != nil || ev.Kind != "stage.start" {
		t.Fatalf("first streamed event = %+v, err %v", ev, err)
	}
	o.Emit(obs.PipelineEvent{Kind: "stage.end", Benchmark: "mcf", Stage: "vli"})
	if err := dec.Decode(&ev); err != nil || ev.Kind != "stage.end" {
		t.Fatalf("second streamed event = %+v, err %v", ev, err)
	}

	// Close must terminate the stream: the pending read returns EOF and
	// Close itself returns promptly without a shutdown timeout error.
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	if err := dec.Decode(&ev); err != io.EOF {
		t.Errorf("read after shutdown = %+v, err %v, want EOF", ev, err)
	}
	if err := <-closed; err != nil {
		t.Errorf("Close: %v", err)
	}
}

// The pprof endpoints must be mounted on the telemetry mux.
func TestServerPprofEndpoints(t *testing.T) {
	s, _ := startTestServer(t)
	resp, body := get(t, "http://"+s.Addr()+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: status %d body %q", resp.StatusCode, body)
	}
	resp, _ = get(t, "http://"+s.Addr()+"/debug/pprof/heap?debug=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof heap: status %d", resp.StatusCode)
	}
}

// A server over a nil observer serves empty views, not panics, and the
// index page lists the endpoints.
func TestServerNilObserverAndIndex(t *testing.T) {
	s, err := Start("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, body := get(t, "http://"+s.Addr()+"/metrics"); body != "" {
		t.Errorf("nil-observer /metrics = %q, want empty", body)
	}
	_, body := get(t, "http://"+s.Addr()+"/progress")
	var view ProgressView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if _, body := get(t, "http://"+s.Addr()+"/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index = %q", body)
	}
	resp, _ := get(t, "http://"+s.Addr()+"/nosuch")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d", resp.StatusCode)
	}
}

// Cost is read from the event log and /metrics: the attribution
// snapshot and flamegraph endpoints are gone, from the mux and the index.
func TestCostEndpointsRetired(t *testing.T) {
	s, _ := startTestServer(t)
	for _, path := range []string{"/attribution", "/profile"} {
		if resp, _ := get(t, "http://"+s.Addr()+path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
	if _, body := get(t, "http://"+s.Addr()+"/"); strings.Contains(body, "/attribution") || strings.Contains(body, "/profile ") {
		t.Errorf("index still lists a retired endpoint:\n%s", body)
	}
}

// StartProfiles/Stop must leave valid non-empty cpu.pprof and
// heap.pprof files; the empty-dir form and nil receiver are no-ops.
func TestProfilesCapture(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "profiles")
	p, err := StartProfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to encode.
	x := 0
	for i := 0; i < 1<<20; i++ {
		x += i * i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}

	if p, err := StartProfiles(""); err != nil || p != nil {
		t.Errorf("StartProfiles(\"\") = %v, %v", p, err)
	}
	var nilP *Profiles
	if err := nilP.Stop(); err != nil {
		t.Errorf("nil Stop: %v", err)
	}
}
