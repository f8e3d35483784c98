// Package jobqueue is the durable, crash-safe job queue behind `xbsim
// serve`: submitted analysis requests become content-addressed jobs
// journaled to a spool directory, scheduled over a bounded worker
// budget, and resumable across process deaths.
//
// Durability model (see DESIGN.md §17): every job state transition is
// write-ahead — the job file is atomically written into the new state's
// spool subdirectory before the old state's file is removed, so a crash
// at any instant leaves at least one valid journal entry per job, and
// recovery resolves duplicates by state precedence (done > failed >
// running > pending). A job found in running/ at startup was in flight
// when the process died; it is re-enqueued, and the per-job checkpoint
// directory makes the re-run skip every benchmark the dead run
// completed — at-least-once execution with bit-identical results, by
// the pipeline's determinism.
//
// Identity model: a job's ID is derived from the experiment
// configuration's fingerprint and the content-derived identity of the
// work (benchmark names, or program.Spec digests via Spec.Name()).
// Results are therefore content-addressed: resubmitting completed work
// is a cache hit served from the spool's results directory, across
// restarts, without running the pipeline.
package jobqueue

import (
	"fmt"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/fingerprint"
	"xbsim/internal/program"
)

// State is a job's lifecycle state; each state is one spool
// subdirectory.
type State string

const (
	// StatePending: journaled, admitted, waiting for a scheduler slot.
	StatePending State = "pending"
	// StateRunning: claimed by a scheduler slot; the pipeline is (or was,
	// if the process died) executing it.
	StateRunning State = "running"
	// StateDone: completed successfully; the result JSON is in the
	// spool's results directory and the job is a permanent cache entry.
	StateDone State = "done"
	// StateFailed: the pipeline failed (or the job's deadline expired).
	// Failed jobs are not cache entries: resubmitting the same work
	// re-enqueues it.
	StateFailed State = "failed"
)

// states in recovery-precedence order: when a crash leaves one job
// journaled in two directories, the earlier state here wins.
var states = []State{StateDone, StateFailed, StateRunning, StatePending}

// Request is the work one job carries: either named benchmarks or
// synthesized program specs (exactly one kind must be non-empty), plus
// the experiment configuration to run them under.
type Request struct {
	// Benchmarks are named benchmarks (program.Benchmarks() subset).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Specs are synthesized program specs (normalized on submit).
	Specs []program.Spec `json:"specs,omitempty"`
	// Config is the experiment configuration. Its result-affecting knobs
	// participate in the job's identity; its wall-clock knobs do not. The
	// queue replaces only CheckpointDir (the job's spool directory) and
	// SharedPool (the process-wide pool, which makes Workers moot);
	// Parallelism reaches the suite as submitted.
	Config experiment.Config `json:"config"`
	// TimeoutSec, when > 0, bounds the job's execution wall clock; an
	// expired job fails with the deadline error.
	TimeoutSec int `json:"timeoutSec,omitempty"`
}

// Validate rejects structurally invalid requests before they are
// admitted or journaled.
func (r *Request) Validate() error {
	if len(r.Benchmarks) == 0 && len(r.Specs) == 0 {
		return fmt.Errorf("request names no work: benchmarks and specs both empty")
	}
	if len(r.Benchmarks) > 0 && len(r.Specs) > 0 {
		return fmt.Errorf("request mixes benchmarks and specs; submit one kind per job")
	}
	if _, err := r.Config.Fingerprint(); err != nil {
		return err
	}
	return nil
}

// normalize canonicalizes the request in place: specs are normalized
// (so identity is content-derived) and the config's benchmark list is
// rewritten to the request's work, keeping the journaled config honest.
func (r *Request) normalize() {
	for i := range r.Specs {
		r.Specs[i] = r.Specs[i].Normalize()
	}
	if len(r.Benchmarks) > 0 {
		r.Config.Benchmarks = r.Benchmarks
	}
}

// ID derives the job's content-addressed identity: the experiment
// config fingerprint (defaults applied — two spellings of the same
// effective experiment coincide) crossed with the work's content
// identity. Benchmark names are identities by definition; spec
// identities are their content-derived Name() digests. Duplicate
// submissions of the same work therefore map to the same job, which is
// what makes done jobs a result cache.
func (r *Request) ID() (string, error) {
	cfgFP, err := r.Config.Fingerprint()
	if err != nil {
		return "", err
	}
	h := fingerprint.New()
	h.String(cfgFP)
	h.Int(len(r.Benchmarks))
	for _, b := range r.Benchmarks {
		h.String(b)
	}
	h.Int(len(r.Specs))
	for _, s := range r.Specs {
		h.String(s.Name())
	}
	return "j-" + h.Sum(), nil
}

// Job is one journaled unit of work. The struct is the on-disk payload;
// State is implied by which spool subdirectory the file lives in and is
// filled in at load time.
type Job struct {
	// ID is the content-addressed job identity ("j-" + 16 hex chars).
	ID string `json:"id"`
	// Request is the submitted work, canonicalized.
	Request Request `json:"request"`
	// Submitted is the first submission's wall-clock time.
	Submitted time.Time `json:"submitted"`
	// Started/Finished bracket the (latest) execution attempt.
	Started  time.Time `json:"started,omitempty"`
	Finished time.Time `json:"finished,omitempty"`
	// Attempts counts execution attempts (recovery re-runs included).
	Attempts int `json:"attempts,omitempty"`
	// Error is the failure rendered as text (failed jobs only).
	Error string `json:"error,omitempty"`
	// SuiteFingerprint is the completed suite's digest (done jobs only) —
	// the value the crash-recovery tests compare across crash/resume runs.
	SuiteFingerprint string `json:"suiteFingerprint,omitempty"`
	// TraceID is the end-to-end correlation ID minted (or accepted from
	// the client) at the first admission — the canonical trace every
	// event, span, and timeline row of this job hangs off. Persisted in
	// the spool record so it survives crash recovery. It does NOT
	// participate in the job's content-addressed identity: identity is
	// what the work is, a trace is who asked for it.
	TraceID string `json:"traceId,omitempty"`
	// Tenant labels the submitting tenant for per-tenant accounting
	// ("default" when the client names none).
	Tenant string `json:"tenant,omitempty"`
	// CoalescedTraces are the trace IDs of later submissions that
	// coalesced onto this job (duplicate in flight) or hit its cached
	// result — each links back to TraceID as the canonical trace.
	CoalescedTraces []string `json:"coalescedTraces,omitempty"`
	// State is the job's current lifecycle state (not serialized; the
	// spool subdirectory is the authority).
	State State `json:"-"`
}

// clone returns a copy — what the queue hands out so callers can't
// mutate journaled state (the coalesced-trace slice is copied too).
func (j *Job) clone() *Job {
	c := *j
	c.CoalescedTraces = append([]string(nil), j.CoalescedTraces...)
	return &c
}

// Submission carries per-submission metadata that does not participate
// in the job's content-addressed identity: two submissions of the same
// work share one job but keep distinct traces.
type Submission struct {
	// TraceID correlates this submission end to end; empty mints a fresh
	// obs.NewTraceID. Client-supplied values are sanitized.
	TraceID string
	// Tenant labels the submitter for per-tenant accounting (empty =
	// "default").
	Tenant string
}
