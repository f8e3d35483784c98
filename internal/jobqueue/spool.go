package jobqueue

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"xbsim/internal/atomicfile"
	"xbsim/internal/fingerprint"
	"xbsim/internal/obs"
)

// Spool is the on-disk job journal: one subdirectory per lifecycle
// state holding one fingerprinted JSON file per job, a results
// directory holding completed suites' exact report JSON bytes, and a
// per-job checkpoint directory tree. All writes go through
// atomicfile (temp + fsync + rename + directory fsync), like the
// checkpoints, so a process death at any instant leaves whole files or
// no files — never torn ones — and a write that returned survives an OS
// crash.
//
//	<dir>/jobs/pending/<id>.json
//	<dir>/jobs/running/<id>.json
//	<dir>/jobs/done/<id>.json
//	<dir>/jobs/failed/<id>.json
//	<dir>/results/<id>.json
//	<dir>/ckpt/<id>/...
//	<dir>/journal/<id>.jsonl        per-job event journal
//	<dir>/journal/<id>.1.jsonl      its rotated predecessor, if any
type Spool struct {
	dir string
}

// spoolVersion gates the job-file format; bump on incompatible change.
// v2: experiment.Config lost DisableMemo, so a v1 job re-marshals
// differently and would fail its fingerprint check as "corrupt"; the
// version check rejects it by name instead.
// v3: experiment.Config lost DisableWarming (the warming-off model is now
// cold-start points, chosen by an unexported field), so a v2 job
// re-marshals differently, for the same reason.
// v4: experiment.Config lost Retry and StageTimeout (stages run once),
// so a v3 job re-marshals without them and would fail its fingerprint
// check the same way.
const spoolVersion = 4

// jobFile is the on-disk job record: the payload plus a recomputed-on-
// load fingerprint, so a corrupt or hand-edited record is detected and
// quarantined rather than trusted.
type jobFile struct {
	Version     int    `json:"version"`
	Job         Job    `json:"job"`
	Fingerprint string `json:"fingerprint"`
}

// OpenSpool opens (creating if needed) the spool rooted at dir.
func OpenSpool(dir string) (*Spool, error) {
	s := &Spool{dir: dir}
	for _, st := range states {
		if err := os.MkdirAll(s.stateDir(st), 0o755); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "ckpt"), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the spool's root directory.
func (s *Spool) Dir() string { return s.dir }

func (s *Spool) stateDir(st State) string {
	return filepath.Join(s.dir, "jobs", string(st))
}

func (s *Spool) jobPath(st State, id string) string {
	return filepath.Join(s.stateDir(st), id+".json")
}

// CheckpointDir names the job's private checkpoint directory. Per-job
// directories (on top of the experiment layer's per-config scoping)
// keep one job's checkpoint lifecycle — created on first run, reused on
// recovery — independent of every other job's.
func (s *Spool) CheckpointDir(id string) string {
	return filepath.Join(s.dir, "ckpt", id)
}

// ResultPath names the job's result file.
func (s *Spool) ResultPath(id string) string {
	return filepath.Join(s.dir, "results", id+".json")
}

// JournalPath names the job's durable event journal — the JSONL event
// stream the per-job recorder appends to across process lifetimes, and
// Timeline reads back. Read it with obs.ReadJournal, which merges the
// rotated generation.
func (s *Spool) JournalPath(id string) string {
	return filepath.Join(s.dir, "journal", id+".jsonl")
}

// Timeline resolves key among jobs — a job ID, the job's canonical
// trace, or a coalesced submission's trace — and builds that job's
// timeline from one read of its journal. A live queue and an offline
// spool both build timelines here, so they agree. ErrNotFound when no
// job matches.
func (s *Spool) Timeline(key string, jobs []*Job) (*obs.Timeline, error) {
	for _, j := range jobs {
		if j.ID != key && j.TraceID != key && !slices.Contains(j.CoalescedTraces, key) {
			continue
		}
		evs, err := obs.ReadJournal(s.JournalPath(j.ID))
		if err != nil {
			return nil, err
		}
		return obs.BuildTimeline(obs.TimelineInput{
			TraceID: j.TraceID,
			JobID:   j.ID,
			Tenant:  j.Tenant,
			State:   string(j.State),
			Links:   j.CoalescedTraces,
			Events:  evs,
		}), nil
	}
	return nil, ErrNotFound
}

// jobFingerprint digests the job payload via its canonical JSON form.
func jobFingerprint(j *Job) (string, error) {
	data, err := json.Marshal(j)
	if err != nil {
		return "", err
	}
	h := fingerprint.New()
	h.String(string(data))
	return h.Sum(), nil
}

// Write journals the job into st's directory (atomically, leaving any
// other state's file for the job untouched — Move handles transitions).
func (s *Spool) Write(st State, j *Job) error {
	fp, err := jobFingerprint(j)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(&jobFile{Version: spoolVersion, Job: *j, Fingerprint: fp}, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.Write(s.jobPath(st, j.ID), append(data, '\n'))
}

// Move transitions the job from one state to another, write-ahead: the
// new state's file is durably in place before the old one is removed. A
// crash between the two leaves the job journaled in both directories;
// recovery precedence (states order) resolves it in favor of the newer
// state, because transitions only ever move toward higher precedence
// (pending→running→done/failed) or re-spool running→pending, where
// running's stale presence is exactly the "re-enqueue me" signal.
func (s *Spool) Move(j *Job, from, to State) error {
	if err := s.Write(to, j); err != nil {
		return err
	}
	if err := os.Remove(s.jobPath(from, j.ID)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Remove deletes the job's file in st, tolerating absence.
func (s *Spool) Remove(st State, id string) error {
	err := os.Remove(s.jobPath(st, id))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// load reads and validates one job file.
func (s *Spool) load(st State, path string) (*Job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var jf jobFile
	if err := json.Unmarshal(data, &jf); err != nil {
		return nil, fmt.Errorf("job file %s: unparseable: %w", filepath.Base(path), err)
	}
	if jf.Version != spoolVersion {
		return nil, fmt.Errorf("job file %s: version %d, want %d", filepath.Base(path), jf.Version, spoolVersion)
	}
	fp, err := jobFingerprint(&jf.Job)
	if err != nil {
		return nil, err
	}
	if fp != jf.Fingerprint {
		return nil, fmt.Errorf("job file %s: fingerprint mismatch, corrupt", filepath.Base(path))
	}
	j := jf.Job
	j.State = st
	return &j, nil
}

// Load scans every state directory and returns one Job per ID, resolved
// by state precedence: a job journaled in done/ and running/ (crash
// during the done commit) loads as done; one in running/ and pending/
// (crash during a drain re-spool) loads as the one precedence favors.
// Files that fail validation are skipped (and reported in the second
// return) — a corrupt journal entry costs that job, never the spool.
// For every resolved job, lower-precedence leftovers are cleaned up so
// the journal converges back to one file per job.
func (s *Spool) Load() ([]*Job, []error) {
	var errs []error
	jobs := map[string]*Job{}
	for _, st := range states { // precedence order: first hit wins
		entries, err := os.ReadDir(s.stateDir(st))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
				continue
			}
			id := strings.TrimSuffix(name, ".json")
			if _, seen := jobs[id]; seen {
				// A lower-precedence leftover from an interrupted Move.
				if err := s.Remove(st, id); err != nil {
					errs = append(errs, err)
				}
				continue
			}
			j, err := s.load(st, filepath.Join(s.stateDir(st), name))
			if err != nil {
				errs = append(errs, err)
				continue
			}
			if j.ID != id {
				errs = append(errs, fmt.Errorf("job file %s: payload names %q", name, j.ID))
				continue
			}
			jobs[id] = j
		}
	}
	out := make([]*Job, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j)
	}
	return out, errs
}

// WriteResult atomically persists the job's result bytes — the exact
// Suite.WriteJSON output, stored verbatim so serving it back is
// byte-identical to what a direct pipeline run prints.
func (s *Spool) WriteResult(id string, data []byte) error {
	return atomicfile.Write(s.ResultPath(id), data)
}

// ReadResult returns the job's stored result bytes.
func (s *Spool) ReadResult(id string) ([]byte, error) {
	return os.ReadFile(s.ResultPath(id))
}
