// Package serve is the xbsim analysis service: an HTTP front end over
// the durable internal/jobqueue scheduler. Clients POST experiment
// requests to /jobs and get back content-addressed job IDs; results,
// per-job event streams, and queue telemetry are served from the same
// process; SIGTERM drains gracefully — admission closes, in-flight
// suites checkpoint and re-spool, and the process exits cleanly with
// every accepted job durably journaled for the next start.
//
// Endpoints:
//
//	POST /jobs               submit work (JSON body and/or query params)
//	GET  /jobs               list known jobs + queue stats
//	GET  /jobs/{id}          one job's state
//	GET  /jobs/{id}/result   the completed suite's report JSON, verbatim
//	GET  /jobs/{id}/events   the job's event log (?stream=1 JSONL)
//	GET  /jobs/{id}/timeline the job's reconstructed trace timeline
//	GET  /healthz            liveness + queue stats (always 200)
//	GET  /readyz             readiness (503 while draining)
//	GET  /metrics ...        the shared telemetry surface (internal/telemetry)
//
// Tracing: every submission carries an end-to-end correlation ID —
// client-supplied via the X-Xbsim-Trace header (or ?trace=), minted
// otherwise — echoed back in the response's X-Xbsim-Trace header and
// threaded through the queue into the pipeline's events and spans. The
// X-Xbsim-Tenant header (or ?tenant=) labels per-tenant metrics.
// /jobs/{id}/timeline accepts a job ID or any linked trace ID.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/jobqueue"
	"xbsim/internal/obs"
	"xbsim/internal/program"
	"xbsim/internal/telemetry"
)

// Options configures Start.
type Options struct {
	// Addr is the listen address (":0" picks a free port).
	Addr string
	// Spool is the durable job-spool directory (required).
	Spool string
	// Concurrency, MaxPending, and Workers feed the queue's
	// jobqueue.Options (zero = that layer's default).
	Concurrency int
	MaxPending  int
	Workers     int
	// Observer receives service and pipeline metrics; nil means a fresh
	// observer with a metrics registry and event log.
	Observer *obs.Observer
}

// Server is one running analysis service.
type Server struct {
	o    *obs.Observer
	q    *jobqueue.Queue
	th   *telemetry.Handlers
	ln   net.Listener
	srv  *http.Server
	done chan struct{}

	mu       sync.Mutex
	draining bool
}

// Start opens (or recovers) the spool, starts the scheduler, and begins
// serving. ctx is the base context every job runs under — cancel it to
// abort all work; attach a faults.Injector to exercise serve.crash.
func Start(ctx context.Context, opts Options) (*Server, error) {
	o := opts.Observer
	if o == nil {
		o = obs.New()
	}
	q, err := jobqueue.Open(ctx, jobqueue.Options{
		Dir:         opts.Spool,
		Concurrency: opts.Concurrency,
		MaxPending:  opts.MaxPending,
		Workers:     opts.Workers,
		Observer:    o,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		q.Close()
		return nil, err
	}
	s := &Server{o: o, q: q, th: telemetry.NewHandlers(o), ln: ln, done: make(chan struct{})}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/timeline", s.handleTimeline)
	s.th.Register(mux)

	// Same timeout posture as the telemetry server: bounded read side,
	// no write deadline (event streams run until drain or disconnect).
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Queue exposes the underlying scheduler (tests, the chaos harness).
func (s *Server) Queue() *jobqueue.Queue { return s.q }

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains gracefully: readiness flips to 503 and admission
// closes immediately, running jobs are canceled and re-spooled (their
// completed benchmarks are checkpointed), event streams terminate, and
// the HTTP server drains in-flight requests. Every accepted job is
// durably journaled when Shutdown returns; a new Start on the same
// spool resumes them.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	err := s.q.Drain(ctx)
	s.th.Close()
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	<-s.done
	return err
}

// Close is Shutdown with a 30-second deadline — the normal exit path.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// SubmitRequest is the POST /jobs body: a jobqueue.Request plus the
// service-level conveniences resolved before admission.
type SubmitRequest struct {
	jobqueue.Request
	// Preset names a base configuration: "quick" (the five-benchmark
	// reduced suite) or "full" (the paper-shaped suite). The request's
	// explicit Benchmarks narrow it. An omitted preset with a zero-valued
	// Config defaults to "quick" — a bare POST must not schedule the
	// full-scale suite by accident.
	Preset string `json:"preset,omitempty"`
}

// SubmitResponse is the POST /jobs response body.
type SubmitResponse struct {
	// Job is the admitted (or cached) job's state snapshot.
	Job *jobqueue.Job `json:"job"`
	// Cached is true when the submission hit the content-addressed
	// result cache — the result is already available, nothing ran.
	Cached bool `json:"cached"`
	// TraceID is the job's canonical trace. A coalesced or cached
	// submission sees the canonical job's trace here; its own submitted
	// trace is linked in Job.CoalescedTraces.
	TraceID string `json:"traceId"`
	// ResultURL, EventsURL, and TimelineURL are the job's follow-up
	// endpoints.
	ResultURL   string `json:"resultUrl"`
	EventsURL   string `json:"eventsUrl"`
	TimelineURL string `json:"timelineUrl"`
}

// resolve canonicalizes a submission: query parameters override body
// fields, presets materialize configs, ?random=seed synthesizes specs,
// and the wall-clock knobs the queue owns are stripped.
func resolve(r *http.Request, req *SubmitRequest) error {
	qv := r.URL.Query()
	if v := qv.Get("preset"); v != "" {
		req.Preset = v
	}
	if v := qv.Get("benchmarks"); v != "" {
		req.Benchmarks = strings.Split(v, ",")
	}
	if v := qv.Get("timeout"); v != "" {
		sec, err := strconv.Atoi(v)
		if err != nil || sec < 0 {
			return fmt.Errorf("bad timeout %q", v)
		}
		req.TimeoutSec = sec
	}
	if v := qv.Get("random"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("bad random seed %q", v)
		}
		n := 1
		if nv := qv.Get("n"); nv != "" {
			if n, err = strconv.Atoi(nv); err != nil || n < 1 || n > 64 {
				return fmt.Errorf("bad n %q (want 1..64)", nv)
			}
		}
		req.Specs = req.Specs[:0]
		for i := 0; i < n; i++ {
			req.Specs = append(req.Specs, program.RandomSpec(seed, i))
		}
	}

	// A submission that names no configuration at all runs quick-scale.
	if req.Preset == "" && reflect.DeepEqual(req.Config, experiment.Config{}) {
		req.Preset = "quick"
	}
	switch req.Preset {
	case "":
	case "quick":
		req.Config = presetConfig(experiment.QuickConfig(), req.Config)
	case "full":
		req.Config = presetConfig(experiment.FullConfig(), req.Config)
	default:
		return fmt.Errorf("unknown preset %q (want quick or full)", req.Preset)
	}
	if len(req.Benchmarks) == 0 && len(req.Specs) == 0 {
		req.Benchmarks = req.Config.Benchmarks
	}
	// The queue owns the wall-clock execution knobs: per-job checkpoint
	// dirs and the process-wide shared worker pool.
	req.Config.CheckpointDir = ""
	req.Config.SharedPool = nil
	return nil
}

// presetConfig lays the client's sparse overrides over a preset base:
// only the scale and selection knobs a service client may reasonably
// tune are honored; everything else comes from the preset.
func presetConfig(base, over experiment.Config) experiment.Config {
	if over.TargetOps != 0 {
		base.TargetOps = over.TargetOps
	}
	if over.IntervalSize != 0 {
		base.IntervalSize = over.IntervalSize
	}
	if over.Sampler != "" {
		base.Sampler = over.Sampler
	}
	if over.SamplerBudget != 0 {
		base.SamplerBudget = over.SamplerBudget
	}
	if over.Seed != "" {
		base.Seed = over.Seed
	}
	return base
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "bad request JSON: "+err.Error())
			return
		}
	}
	if err := resolve(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Benchmarks != nil {
		req.Config.Benchmarks = req.Benchmarks
	}

	// Correlation metadata rides headers (query params as a curl-friendly
	// fallback); neither participates in the job's identity.
	sub := jobqueue.Submission{
		TraceID: firstNonEmpty(r.Header.Get("X-Xbsim-Trace"), r.URL.Query().Get("trace")),
		Tenant:  firstNonEmpty(r.Header.Get("X-Xbsim-Tenant"), r.URL.Query().Get("tenant")),
	}
	job, cached, err := s.q.SubmitTraced(req.Request, sub)
	switch {
	case errors.Is(err, jobqueue.ErrQueueFull):
		// Admission control: the backlog is at its cap. Tell the client
		// when the queue should have drained enough to try again.
		w.Header().Set("Retry-After", strconv.Itoa(s.q.RetryAfter()))
		httpError(w, http.StatusTooManyRequests, "queue full")
		return
	case errors.Is(err, jobqueue.ErrDraining):
		w.Header().Set("Retry-After", "10")
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	w.Header().Set("Location", "/jobs/"+job.ID)
	w.Header().Set("X-Xbsim-Trace", job.TraceID)
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, SubmitResponse{
		Job:         job,
		Cached:      cached,
		TraceID:     job.TraceID,
		ResultURL:   "/jobs/" + job.ID + "/result",
		EventsURL:   "/jobs/" + job.ID + "/events",
		TimelineURL: "/jobs/" + job.ID + "/timeline",
	})
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// ListResponse is the GET /jobs response body.
type ListResponse struct {
	Jobs  []*jobqueue.Job `json:"jobs"`
	Stats jobqueue.Stats  `json:"stats"`
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ListResponse{Jobs: s.q.List(), Stats: s.q.Stats()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.q.Get(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	// State is json:"-" on the journal payload; report it explicitly.
	writeJSON(w, http.StatusOK, struct {
		*jobqueue.Job
		State jobqueue.State `json:"state"`
	}{job, job.State})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, err := s.q.Result(id)
	switch {
	case errors.Is(err, jobqueue.ErrNotFound):
		httpError(w, http.StatusNotFound, err.Error())
		return
	case errors.Is(err, jobqueue.ErrNoResult):
		// Known but unfinished: 409 tells pollers "valid job, come back".
		httpError(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if job, jerr := s.q.Get(id); jerr == nil && job.SuiteFingerprint != "" {
		w.Header().Set("X-Suite-Fingerprint", job.SuiteFingerprint)
	}
	// The stored bytes are the exact Suite.WriteJSON output — served
	// verbatim so they diff cleanly against `xbsim figures -json`.
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rec, err := s.q.Events(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if r.URL.Query().Get("stream") != "" {
		telemetry.StreamEvents(w, r, rec, s.th.Stop())
		return
	}
	writeJSON(w, http.StatusOK, telemetry.EventsView{Events: rec.Events()})
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	// The path {id} accepts a job ID or any linked trace ID — operators
	// usually hold the trace from a submission response or a log line.
	tl, err := s.q.Timeline(r.PathValue("id"))
	if errors.Is(err, jobqueue.ErrNotFound) {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, tl)
}

// HealthResponse is the GET /healthz response body.
type HealthResponse struct {
	Status string         `json:"status"`
	Stats  jobqueue.Stats `json:"stats"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Stats: s.q.Stats()})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ready\n"))
}

func (s *Server) handleIndex(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("xbsim analysis service\n\n" +
		"POST /jobs               submit work (?preset=quick&benchmarks=swim, ?random=SEED&n=K, or JSON body)\n" +
		"                         trace/tenant via X-Xbsim-Trace / X-Xbsim-Tenant headers (?trace=, ?tenant=)\n" +
		"GET  /jobs               list jobs + queue stats\n" +
		"GET  /jobs/{id}          job state\n" +
		"GET  /jobs/{id}/result   completed suite report JSON (verbatim)\n" +
		"GET  /jobs/{id}/events   per-job pipeline events (?stream=1 JSONL)\n" +
		"GET  /jobs/{id}/timeline reconstructed trace timeline (id or trace ID)\n" +
		"GET  /healthz /readyz    liveness / readiness\n" +
		"GET  /metrics /progress /events /debug/pprof\n"))
}

// ErrorResponse is every non-2xx JSON body.
type ErrorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}
