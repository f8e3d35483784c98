package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// PipelineEvent is one structured entry in the pipeline's flight
// recorder: a stage starting, finishing or failing, an injected fault
// firing, a checkpoint being loaded or saved, or a coarse progress
// update. Events are small, flat, and JSON-stable — the same struct is
// served live from the telemetry server's /events endpoint and
// persisted as one JSONL line per event.
type PipelineEvent struct {
	// Seq is the recorder-assigned sequence number, 1-based and strictly
	// increasing: event Seq n is the recorder's entry n-1. Each process's
	// recorder starts again at 1, so in a journal that spans a restart a
	// Seq no larger than its predecessor's begins the next process's run.
	Seq uint64 `json:"seq"`
	// Time is the recorder-assigned wall-clock timestamp.
	Time time.Time `json:"time"`
	// Kind classifies the event: "stage.start", "stage.finish",
	// "stage.fail", "panic", "fault", "checkpoint", "progress",
	// "span.start", "span.end".
	Kind string `json:"kind"`
	// Benchmark, Binary, and Stage locate the event in the pipeline
	// (any may be empty).
	Benchmark string `json:"benchmark,omitempty"`
	Binary    string `json:"binary,omitempty"`
	Stage     string `json:"stage,omitempty"`
	// Detail is a free-form annotation (error text, fault kind, ...).
	Detail string `json:"detail,omitempty"`
	// Trace is the end-to-end correlation ID the event belongs to. Events
	// recorded without one inherit the recorder's trace (SetTrace); an
	// explicit value survives, which is how a coalesced submission's
	// trace is linked onto the canonical job's event stream.
	Trace string `json:"trace,omitempty"`
	// Done and Total, when Total > 0, carry suite-level completion.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Span numbers a span's "span.start" and "span.end" events, 1-based
	// in start order within one process's run of the log; Parent is the
	// enclosing span's number (0 for a root). Stage holds the span's name
	// and the start event its Detail.
	Span   int `json:"span,omitempty"`
	Parent int `json:"parent,omitempty"`
}

// BenchmarkState is the most recent recorded state of one benchmark,
// derived from the log for the live /progress view.
type BenchmarkState struct {
	// Kind and Stage are from the benchmark's latest event.
	Kind  string `json:"kind"`
	Stage string `json:"stage"`
	// Binary is the binary the latest event concerned, if any.
	Binary string `json:"binary,omitempty"`
	// Seq is the latest event's sequence number.
	Seq uint64 `json:"seq"`
	// Updated is the latest event's timestamp.
	Updated time.Time `json:"updated"`
}

// Recorder is the append-only event log of one run: pipeline events,
// progress updates and span start/end events, in record order. Every
// view of the run (spans, per-benchmark state, suite progress) is
// derived from it. It optionally streams every event as a JSONL line to
// a writer the moment it is recorded, so a crash leaves the
// already-written lines behind. A nil *Recorder discards
// events; all methods are safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	now   func() time.Time
	epoch time.Time // span offsets (SpanView.Start) count from here

	events []PipelineEvent // entry n-1 has Seq n
	spans  int             // spans started so far

	w *bufio.Writer // optional JSONL sink
	// werr remembers the first JSONL write failure so Flush can report it.
	werr error

	// trace, when set, stamps every recorded event that lacks one.
	trace string

	// File-backed rotating sink state (SetOutputPath). When f is non-nil
	// the recorder owns the file: every event is flushed through to disk
	// at record time (a crash must not lose the admission record), and
	// once size exceeds maxBytes the file is atomically renamed to
	// RotatedPath(path) and reopened fresh.
	f        *os.File
	path     string
	maxBytes int64
	size     int64
	rotc     *Counter
}

// NewRecorder returns an empty log with room for n events before it
// first grows (n is a capacity hint, as in make; the log keeps every
// event however many are recorded).
func NewRecorder(n int) *Recorder {
	return &Recorder{
		events: make([]PipelineEvent, 0, max(n, 0)),
		now:    time.Now,
		epoch:  time.Now(),
	}
}

// SetClock injects the time source and restarts the span epoch at its
// first reading — for deterministic tests.
func (r *Recorder) SetClock(now func() time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.now = now
	r.epoch = now()
	r.mu.Unlock()
}

// SetTrace stamps every subsequently recorded event that carries no
// trace of its own with id — the per-job recorders use this so trace
// tagging is implicit for all pipeline events.
func (r *Recorder) SetTrace(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.trace = id
	r.mu.Unlock()
}

// SetOutput streams every subsequently recorded event to w as one JSON
// line. Writes happen under the recorder's lock at record time, so the
// file tails the run live and survives a mid-run crash up to the last
// event. Pass nil to stop streaming. Call Flush before closing the
// underlying file. Attaching a writer detaches any SetOutputPath file.
func (r *Recorder) SetOutput(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeFileLocked()
	if w == nil {
		r.w = nil
		return
	}
	r.w = bufio.NewWriter(w)
}

// SetOutputPath attaches a size-capped rotating JSONL file sink: events
// append to path (created if absent, reopened across restarts so a
// journal accumulates a job's whole history), each event is flushed to
// disk as it is recorded, and when the file exceeds maxBytes it is
// atomically renamed to RotatedPath(path) — replacing any previous
// rotation — and a fresh file begins. maxBytes <= 0 uses
// DefaultJournalMaxBytes. The recorder owns the file; detach with
// CloseOutput (or SetOutput).
func (r *Recorder) SetOutputPath(path string, maxBytes int64) error {
	if r == nil {
		return nil
	}
	if maxBytes <= 0 {
		maxBytes = DefaultJournalMaxBytes
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closeFileLocked()
	r.f = f
	r.path = path
	r.maxBytes = maxBytes
	r.size = st.Size()
	r.w = bufio.NewWriter(f)
	return nil
}

// SetRotationCounter wires a counter incremented on every journal
// rotation (nil detaches).
func (r *Recorder) SetRotationCounter(c *Counter) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rotc = c
	r.mu.Unlock()
}

// CloseOutput flushes and closes the SetOutputPath file (a no-op for
// plain SetOutput writers, which the caller owns), returning the first
// write error seen.
func (r *Recorder) CloseOutput() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w != nil && r.f != nil {
		if err := r.w.Flush(); err != nil && r.werr == nil {
			r.werr = err
		}
		r.w = nil
	}
	r.closeFileLocked()
	return r.werr
}

// closeFileLocked closes the owned file sink, if any; callers hold r.mu.
func (r *Recorder) closeFileLocked() {
	if r.f == nil {
		return
	}
	if err := r.f.Close(); err != nil && r.werr == nil {
		r.werr = err
	}
	r.f = nil
	r.path = ""
	r.size = 0
}

// DefaultJournalMaxBytes caps a rotating journal file before rotation:
// generous for per-job event streams (hundreds of runs' worth of stage
// events), small enough that two of them per job stay irrelevant on
// disk.
const DefaultJournalMaxBytes = 1 << 20

// RotatedPath names the rotation target for a journal path: the ".1"
// generation inserted before the extension ("journal.jsonl" →
// "journal.1.jsonl").
func RotatedPath(path string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + ".1" + ext
}

// Flush flushes the JSONL sink and returns the first write error seen.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w != nil {
		if err := r.w.Flush(); err != nil && r.werr == nil {
			r.werr = err
		}
	}
	return r.werr
}

// Record stamps the event with the next sequence number and the current
// time, appends it to the log, and streams the JSONL line if a sink is
// attached.
func (r *Recorder) Record(ev PipelineEvent) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recordLocked(ev)
	r.mu.Unlock()
}

// recordLocked is Record; callers hold r.mu.
func (r *Recorder) recordLocked(ev PipelineEvent) {
	ev.Seq = uint64(len(r.events)) + 1
	ev.Time = r.now()
	if ev.Trace == "" {
		ev.Trace = r.trace
	}
	r.events = append(r.events, ev)

	if r.w != nil {
		line, err := json.Marshal(ev)
		if err == nil {
			line = append(line, '\n')
			_, err = r.w.Write(line)
		}
		if err == nil && r.f != nil {
			// File-backed journal: flush through so a crash keeps every
			// recorded event, then rotate at the line boundary if the cap
			// is exceeded (soft by at most one line).
			err = r.w.Flush()
			r.size += int64(len(line))
			if err == nil && r.size > r.maxBytes {
				err = r.rotateLocked()
			}
		}
		if err != nil && r.werr == nil {
			r.werr = err
		}
	}
}

// rotateLocked syncs the journal, renames it to its ".1" generation and
// starts a fresh file; callers hold r.mu. The sync comes first, so the
// renamed generation never outlives its contents in an OS crash.
func (r *Recorder) rotateLocked() error {
	if err := errors.Join(r.f.Sync(), r.f.Close()); err != nil {
		return err
	}
	if err := os.Rename(r.path, RotatedPath(r.path)); err != nil {
		return err
	}
	f, err := os.OpenFile(r.path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		r.f = nil
		r.w = nil
		return err
	}
	r.f = f
	r.w = bufio.NewWriter(f)
	r.size = 0
	r.rotc.Inc()
	return nil
}

// Events returns a copy of the log. A nil recorder returns nil.
func (r *Recorder) Events() []PipelineEvent {
	return r.EventsAfter(0)
}

// EventsAfter returns a copy of the events with Seq > seq, oldest first.
// A nil recorder returns nil.
func (r *Recorder) EventsAfter(seq uint64) []PipelineEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tail := r.events[min(seq, uint64(len(r.events))):]
	out := make([]PipelineEvent, len(tail))
	copy(out, tail)
	return out
}

// BenchmarkStates returns every benchmark's latest state: its last
// event in the log.
func (r *Recorder) BenchmarkStates() map[string]BenchmarkState {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]BenchmarkState{}
	for _, ev := range r.events {
		if ev.Benchmark != "" {
			out[ev.Benchmark] = BenchmarkState{
				Kind: ev.Kind, Stage: ev.Stage, Binary: ev.Binary,
				Seq: ev.Seq, Updated: ev.Time,
			}
		}
	}
	return out
}

// SuiteProgress returns the latest suite-level (done, total)
// completion counts in the log, (0, 0) before any suite event.
func (r *Recorder) SuiteProgress() (done, total int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.events) - 1; i >= 0; i-- {
		if ev := r.events[i]; ev.Total > 0 {
			return ev.Done, ev.Total
		}
	}
	return 0, 0
}

// ReadEvents decodes a JSONL event stream (as written via SetOutput or
// SetOutputPath) back into events — the round-trip inverse of the
// recorder's sink. Lines that fail to parse are skipped rather than
// fatal: a crash or a rotation observed mid-stream can tear a line, and
// the torn line must cost only itself, never the rest of the journal.
func ReadEvents(rd io.Reader) ([]PipelineEvent, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []PipelineEvent
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev PipelineEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// ReadJournal reads a rotating journal's events in order: the rotated
// ".1" generation first (if present), then the live file. Missing files
// are empty, not errors — a journal that never rotated, or never
// existed, reads as what it holds.
func ReadJournal(path string) ([]PipelineEvent, error) {
	var out []PipelineEvent
	for _, p := range []string{RotatedPath(path), path} {
		f, err := os.Open(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return out, err
		}
		evs, rerr := ReadEvents(f)
		f.Close()
		out = append(out, evs...)
		if rerr != nil {
			return out, rerr
		}
	}
	return out, nil
}
