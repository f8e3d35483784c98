package telemetry

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"xbsim/internal/obs"
)

// Handlers binds an Observer's live state to HTTP endpoints. It exists
// separately from Server so other servers (xbsim serve) can mount the
// same telemetry surface on their own mux. Close terminates in-flight
// streaming responses (/events?stream=1); plain snapshot handlers need
// no termination.
type Handlers struct {
	o    *obs.Observer
	stop chan struct{}
	once sync.Once
}

// NewHandlers wraps the observer (which, like any of its fields, may be
// nil — endpoints then serve empty views).
func NewHandlers(o *obs.Observer) *Handlers {
	return &Handlers{o: o, stop: make(chan struct{})}
}

// Register mounts every telemetry endpoint except "/" on mux (the
// index is left to the mux's owner, since a mux accepts only one "/"
// handler).
func (h *Handlers) Register(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", h.handleMetrics)
	mux.HandleFunc("/progress", h.handleProgress)
	mux.HandleFunc("/events", h.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Close terminates in-flight streaming responses. Idempotent.
func (h *Handlers) Close() {
	h.once.Do(func() { close(h.stop) })
}

// Stop exposes the shutdown channel streaming handlers select on, so a
// host server can pass it to StreamEvents for its own streaming routes.
func (h *Handlers) Stop() <-chan struct{} { return h.stop }

// Server exposes an Observer's live state over HTTP. Endpoints:
//
//	/metrics     Prometheus text exposition of the metrics registry
//	/progress    JSON: suite progress, per-benchmark state, span tree
//	/events      JSON: the event log (pipeline, progress and span events)
//	             (?stream=1 follows live as JSONL until shutdown)
//	/debug/pprof the standard runtime profiling endpoints
//
// Handlers snapshot state on every request; the pipeline never blocks
// on a slow scraper.
type Server struct {
	h    *Handlers
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// Start listens on addr (e.g. "127.0.0.1:9090"; ":0" picks a free
// port) and serves the observer's state until Close. The observer and
// any of its fields may be nil — the corresponding endpoints serve
// empty views.
func Start(addr string, o *obs.Observer) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{h: NewHandlers(o), ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	s.h.Register(mux)
	// Bounded read-side timeouts keep a stalled or malicious client from
	// pinning a connection; WriteTimeout stays 0 deliberately because
	// /events?stream=1 writes for as long as the client follows —
	// shutdown, not a write deadline, bounds streaming responses.
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down gracefully: in-flight event streams are
// terminated first (they would otherwise hold Shutdown open), then
// http.Server.Shutdown waits briefly for the remaining in-flight
// requests. Safe on nil.
func (s *Server) Close() error {
	return s.Shutdown(context.Background())
}

// Shutdown is Close with a caller-controlled context: streams stop,
// then the HTTP server drains until ctx expires (with a 2s internal
// cap matching the old Close behavior when ctx has no deadline).
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	s.h.Close()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
	}
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("xbsim telemetry\n\n" +
		"/metrics      Prometheus exposition\n" +
		"/progress     suite + per-benchmark progress (JSON)\n" +
		"/events       event log (JSON; ?stream=1 follows as JSONL)\n" +
		"/debug/pprof  runtime profiles\n"))
}

func (h *Handlers) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var snap obs.Snapshot
	if h.o != nil {
		snap = h.o.Metrics.Snapshot()
	}
	w.Header().Set("Content-Type", PrometheusContentType)
	WritePrometheus(w, snap)
}

// ProgressView is the /progress response body.
type ProgressView struct {
	// Done and Total count finished vs scheduled benchmarks.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Benchmarks maps benchmark name to its latest recorded state.
	Benchmarks map[string]obs.BenchmarkState `json:"benchmarks,omitempty"`
	// Spans is the span tree derived from the event log, in start order.
	Spans []obs.SpanView `json:"spans,omitempty"`
}

func (h *Handlers) handleProgress(w http.ResponseWriter, _ *http.Request) {
	var view ProgressView
	if h.o != nil {
		view.Done, view.Total = h.o.Events.SuiteProgress()
		view.Benchmarks = h.o.Events.BenchmarkStates()
		view.Spans = h.o.Events.Spans()
	}
	writeJSON(w, view)
}

// EventsView is the /events response body.
type EventsView struct {
	// Events holds the event log, oldest first.
	Events []obs.PipelineEvent `json:"events"`
}

func (h *Handlers) handleEvents(w http.ResponseWriter, r *http.Request) {
	var rec *obs.Recorder
	if h.o != nil {
		rec = h.o.Events
	}
	if r.URL.Query().Get("stream") != "" {
		StreamEvents(w, r, rec, h.stop)
		return
	}
	view := EventsView{Events: []obs.PipelineEvent{}}
	if rec != nil {
		view.Events = rec.Events()
	}
	writeJSON(w, view)
}

// streamPollInterval paces the follow-mode poll of the event log.
var streamPollInterval = 100 * time.Millisecond

// StreamEvents serves a recorder as a live JSONL stream: every event
// with Seq > after (query parameter, default 0) is written as one JSON
// line, then the handler follows the log — polling for the events after
// the last one sent, flushing each batch — until the client disconnects
// or stop is closed (server shutdown). The shared streaming core behind both the
// telemetry server's /events?stream=1 and serve's /jobs/{id}/events.
func StreamEvents(w http.ResponseWriter, r *http.Request, rec *obs.Recorder, stop <-chan struct{}) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	last, _ := strconv.ParseUint(r.URL.Query().Get("after"), 10, 64)

	ticker := time.NewTicker(streamPollInterval)
	defer ticker.Stop()
	for {
		for _, ev := range rec.EventsAfter(last) {
			if err := enc.Encode(ev); err != nil {
				return
			}
			last = ev.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-stop:
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}
