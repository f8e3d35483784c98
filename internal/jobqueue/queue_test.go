package jobqueue

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/faults"
	"xbsim/internal/obs"
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

func benchRequest(benchmarks ...string) Request {
	return Request{Benchmarks: benchmarks, Config: testConfig()}
}

// waitState polls until the job reaches the terminal state want
// (done/failed), failing at once if it reaches the other one, or when the
// deadline expires.
func waitState(t *testing.T, q *Queue, id string, want State) *Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, err := q.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case j.State == want:
			return j
		case j.State == StateDone || j.State == StateFailed:
			t.Fatalf("job %s reached %s, want %s (error %q)", id, j.State, want, j.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return nil
}

func openQueue(t *testing.T, ctx context.Context, dir string, o *obs.Observer) *Queue {
	t.Helper()
	q, err := Open(ctx, Options{Dir: dir, Concurrency: 1, Workers: 2, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// A submitted job must run to done, store the exact Suite.WriteJSON
// bytes, and serve duplicate submissions as cache hits without another
// pipeline run.
func TestSubmitCompleteAndCacheHit(t *testing.T) {
	o := obs.New()
	q := openQueue(t, context.Background(), t.TempDir(), o)
	defer q.Close()

	req := benchRequest("mcf")
	j, cached, err := q.Submit(req)
	if err != nil || cached {
		t.Fatalf("submit: cached=%v err=%v", cached, err)
	}
	done := waitState(t, q, j.ID, StateDone)
	if done.SuiteFingerprint == "" {
		t.Fatal("done job has no suite fingerprint")
	}

	// The stored result must be byte-identical to a direct pipeline run.
	got, err := q.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
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
	if fp := suite.Fingerprint(); fp != done.SuiteFingerprint {
		t.Fatalf("suite fingerprint %s != job's %s", fp, done.SuiteFingerprint)
	}

	// Duplicate submission: a cache hit, no new pipeline work.
	before := o.Counter("pipeline.benchmarks_completed").Value()
	j2, cached, err := q.Submit(req)
	if err != nil || !cached {
		t.Fatalf("duplicate submit: cached=%v err=%v", cached, err)
	}
	if j2.ID != j.ID {
		t.Fatalf("duplicate got different ID: %s != %s", j2.ID, j.ID)
	}
	if n := o.Counter("serve.cache.hits").Value(); n != 1 {
		t.Fatalf("serve.cache.hits = %d, want 1", n)
	}
	if after := o.Counter("pipeline.benchmarks_completed").Value(); after != before {
		t.Fatalf("cache hit ran the pipeline: %d -> %d benchmarks", before, after)
	}
}

// Job identity must be content-addressed: the same work spelled with
// defaults explicit coincides, different work differs.
func TestJobIdentity(t *testing.T) {
	a := benchRequest("mcf")
	b := benchRequest("mcf")
	b.Config.Workers = 13 // wall-clock knob: same identity
	idA, err := a.ID()
	if err != nil {
		t.Fatal(err)
	}
	idB, err := b.ID()
	if err != nil {
		t.Fatal(err)
	}
	if idA != idB {
		t.Fatalf("wall-clock knob changed identity: %s != %s", idA, idB)
	}
	c := benchRequest("gzip")
	idC, _ := c.ID()
	if idC == idA {
		t.Fatal("different benchmarks share an identity")
	}
	d := benchRequest("mcf")
	d.Config.Seed = "other"
	idD, _ := d.ID()
	if idD == idA {
		t.Fatal("different seeds share an identity")
	}
	s1 := Request{Specs: []program.Spec{program.RandomSpec(1, 0)}, Config: testConfig()}
	s2 := Request{Specs: []program.Spec{program.RandomSpec(1, 0)}, Config: testConfig()}
	id1, err := s1.ID()
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := s2.ID()
	if id1 != id2 {
		t.Fatal("identical specs got different identities")
	}
}

// Admission control: pending depth beyond MaxPending must reject with
// ErrQueueFull while earlier jobs are preserved.
func TestAdmissionControl(t *testing.T) {
	o := obs.New()
	q, err := Open(context.Background(), Options{
		Dir: t.TempDir(), Concurrency: 1, MaxPending: 2, Workers: 2, Observer: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	// One long-ish job occupies the slot; two more fill pending.
	names := [][]string{{"mcf"}, {"gzip"}, {"swim"}, {"apsi"}}
	var lastErr error
	rejected := 0
	for _, bm := range names {
		_, _, err := q.Submit(benchRequest(bm...))
		if errors.Is(err, ErrQueueFull) {
			rejected++
			lastErr = err
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if rejected == 0 {
		t.Fatalf("no submission rejected with MaxPending=2 (last err %v)", lastErr)
	}
	if n := o.Counter("serve.rejected").Value(); uint64(rejected) != n {
		t.Fatalf("serve.rejected = %d, want %d", n, rejected)
	}
	if q.RetryAfter() < 1 {
		t.Fatalf("RetryAfter = %d, want >= 1", q.RetryAfter())
	}
}

// A failed job must journal its error and be re-enqueued on
// resubmission.
func TestFailedJobResubmit(t *testing.T) {
	q := openQueue(t, context.Background(), t.TempDir(), obs.New())
	defer q.Close()

	req := benchRequest("nosuch-benchmark")
	j, _, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, q, j.ID, StateFailed)
	if failed.Error == "" {
		t.Fatal("failed job carries no error")
	}
	if _, err := q.Result(j.ID); !errors.Is(err, ErrNoResult) {
		t.Fatalf("failed job result: %v, want ErrNoResult", err)
	}
	j2, cached, err := q.Submit(req)
	if err != nil || cached {
		t.Fatalf("resubmit: cached=%v err=%v", cached, err)
	}
	if j2.State != StatePending {
		t.Fatalf("resubmitted job state %s, want pending", j2.State)
	}
	waitState(t, q, j.ID, StateFailed)
}

// A job deadline must fail the job, not wedge the queue. The job's first
// profile stage hangs until its context is done, so only the deadline can
// end it; a job submitted after it must still run to done.
func TestJobDeadline(t *testing.T) {
	fctx := faults.With(context.Background(), faults.NewInjector(
		faults.Rule{Stage: "profile", Index: 0, Kind: faults.KindHang}))
	q := openQueue(t, fctx, t.TempDir(), obs.New())
	defer q.Close()
	req := benchRequest("gzip")
	req.TimeoutSec = 1
	j, _, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, q, j.ID, StateFailed)
	if !strings.Contains(failed.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("job failed with %q, want the deadline error", failed.Error)
	}
	next, _, err := q.Submit(benchRequest("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, next.ID, StateDone)
}

// Drain must close admission, cancel the running job, and re-spool it
// pending so a reopened queue resumes and finishes it.
func TestDrainRespoolsAndResumes(t *testing.T) {
	dir := t.TempDir()
	o := obs.New()
	q := openQueue(t, context.Background(), dir, o)

	req := benchRequest("gcc", "apsi", "applu", "mcf", "swim")
	j, _, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one benchmark checkpoint land, then drain.
	ckptScope := q.Spool().CheckpointDir(j.ID)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if n := countCheckpoints(t, ckptScope); n >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(benchRequest("gzip")); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}

	// Reopen: the interrupted job must resume from its checkpoints and
	// complete. (If the job finished before the drain canceled it, the
	// reopened queue simply loads it done — also correct.)
	o2 := obs.New()
	q2 := openQueue(t, context.Background(), dir, o2)
	defer q2.Close()
	done := waitState(t, q2, j.ID, StateDone)
	if done.SuiteFingerprint == "" {
		t.Fatal("resumed job has no fingerprint")
	}
}

func countCheckpoints(t *testing.T, dir string) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "cfg-*", "*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}

// The in-process crash-recovery test: crash the queue at both
// serve.crash points and via a raw mid-run Kill; in every case a
// restart against the same spool completes the job with a result
// fingerprint identical to a never-interrupted run.
func TestCrashRecoveryFingerprintIdentical(t *testing.T) {
	// Uninterrupted baseline.
	baseQ := openQueue(t, context.Background(), t.TempDir(), obs.New())
	req := benchRequest("mcf", "gzip")
	bj, _, err := baseQ.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	baseline := waitState(t, baseQ, bj.ID, StateDone)
	baseResult, err := baseQ.Result(bj.ID)
	if err != nil {
		t.Fatal(err)
	}
	baseQ.Close()

	crashAt := func(t *testing.T, invocation int, wantCkptHits bool) {
		dir := t.TempDir()
		fctx := faults.With(context.Background(), faults.NewInjector(
			faults.Rule{Stage: "serve.crash", Index: invocation, Kind: faults.KindError}))
		q := openQueue(t, fctx, dir, obs.New())
		if _, _, err := q.Submit(req); err != nil {
			t.Fatal(err)
		}
		// The fault kills the queue; wait for the workers to die.
		deadline := time.Now().Add(60 * time.Second)
		for !q.Killed() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if !q.Killed() {
			t.Fatal("serve.crash fault never fired")
		}
		q.Kill() // join workers

		// Restart against the same spool: recovery must finish the job.
		o2 := obs.New()
		q2 := openQueue(t, context.Background(), dir, o2)
		defer q2.Close()
		done := waitState(t, q2, bj.ID, StateDone)
		if done.SuiteFingerprint != baseline.SuiteFingerprint {
			t.Fatalf("resumed fingerprint %s != uninterrupted %s",
				done.SuiteFingerprint, baseline.SuiteFingerprint)
		}
		result, err := q2.Result(bj.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(result, baseResult) {
			t.Fatal("resumed result bytes differ from uninterrupted run")
		}
		if wantCkptHits {
			if n := o2.Counter("pipeline.checkpoints_loaded").Value(); n == 0 {
				t.Fatal("durability-window recovery recomputed everything (no checkpoint hits)")
			}
		}
	}

	// Invocation 0: crash before the run starts — the job is still
	// journaled pending and recovery runs it from scratch.
	t.Run("before-run", func(t *testing.T) { crashAt(t, 0, false) })
	// Invocation 1: crash inside the durability window (result written,
	// done not committed) — recovery re-runs with every benchmark
	// answered from its checkpoint.
	t.Run("durability-window", func(t *testing.T) { crashAt(t, 1, true) })

	// Raw mid-run kill: no fault plumbing, just Kill once the first
	// benchmark checkpoint exists.
	t.Run("kill-mid-run", func(t *testing.T) {
		dir := t.TempDir()
		q := openQueue(t, context.Background(), dir, obs.New())
		j, _, err := q.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		scope := q.Spool().CheckpointDir(j.ID)
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if countCheckpoints(t, scope) >= 1 {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		q.Kill()

		q2 := openQueue(t, context.Background(), dir, obs.New())
		defer q2.Close()
		done := waitState(t, q2, j.ID, StateDone)
		if done.SuiteFingerprint != baseline.SuiteFingerprint {
			t.Fatalf("post-kill fingerprint %s != uninterrupted %s",
				done.SuiteFingerprint, baseline.SuiteFingerprint)
		}
		result, err := q2.Result(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(result, baseResult) {
			t.Fatal("post-kill result bytes differ from uninterrupted run")
		}
	})
}

// Done jobs must survive restarts as cache entries: a reopened queue
// serves them without re-running.
func TestDoneJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	q := openQueue(t, context.Background(), dir, obs.New())
	req := benchRequest("mcf")
	j, _, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, j.ID, StateDone)
	result1, err := q.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	q.Close()

	o2 := obs.New()
	q2 := openQueue(t, context.Background(), dir, o2)
	defer q2.Close()
	j2, cached, err := q2.Submit(req)
	if err != nil || !cached {
		t.Fatalf("post-restart submit: cached=%v err=%v", cached, err)
	}
	if j2.State != StateDone {
		t.Fatalf("restarted job state %s, want done", j2.State)
	}
	if n := o2.Counter("serve.cache.hits").Value(); n != 1 {
		t.Fatalf("serve.cache.hits after restart = %d, want 1", n)
	}
	if n := o2.Counter("pipeline.benchmarks_completed").Value(); n != 0 {
		t.Fatalf("restart re-ran the pipeline (%d benchmarks)", n)
	}
	result2, err := q2.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(result1, result2) {
		t.Fatal("restarted result bytes differ")
	}
}

// Spec jobs run through RunSpecsCtx and are content-addressed by spec
// digest.
func TestSpecJob(t *testing.T) {
	o := obs.New()
	q := openQueue(t, context.Background(), t.TempDir(), o)
	defer q.Close()
	cfg := testConfig()
	req := Request{Specs: []program.Spec{program.RandomSpec(42, 0)}, Config: cfg}
	j, _, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, q, j.ID, StateDone)
	if done.SuiteFingerprint == "" {
		t.Fatal("spec job has no fingerprint")
	}
	// Identical spec content resubmitted: cache hit.
	_, cached, err := q.Submit(Request{Specs: []program.Spec{program.RandomSpec(42, 0)}, Config: cfg})
	if err != nil || !cached {
		t.Fatalf("spec duplicate: cached=%v err=%v", cached, err)
	}
}

// Corrupt journal entries must be quarantined, not trusted or fatal.
func TestCorruptJobFileSkipped(t *testing.T) {
	dir := t.TempDir()
	q := openQueue(t, context.Background(), dir, obs.New())
	j, _, err := q.Submit(benchRequest("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, q, j.ID, StateDone)
	q.Close()

	// Tamper with the done record's payload.
	path := filepath.Join(dir, "jobs", "done", j.ID+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte(`"attempts": 1`), []byte(`"attempts": 9`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	q2 := openQueue(t, context.Background(), dir, obs.New())
	defer q2.Close()
	if _, err := q2.Get(j.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt job loaded: %v, want ErrNotFound", err)
	}
}

// Validation errors must be rejected before journaling.
func TestRequestValidation(t *testing.T) {
	q := openQueue(t, context.Background(), t.TempDir(), obs.New())
	defer q.Close()
	if _, _, err := q.Submit(Request{Config: testConfig()}); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, _, err := q.Submit(Request{
		Benchmarks: []string{"mcf"},
		Specs:      []program.Spec{program.RandomSpec(1, 0)},
		Config:     testConfig(),
	}); err == nil {
		t.Fatal("mixed request accepted")
	}
	bad := testConfig()
	bad.Sampler = "nope"
	if _, _, err := q.Submit(Request{Benchmarks: []string{"mcf"}, Config: bad}); err == nil {
		t.Fatal("invalid sampler accepted")
	}
}

// A job file written before a change to experiment.Config's fields
// (DisableMemo for v1, DisableWarming for v2, Retry and StageTimeout for
// v3) must be rejected by its format version, not misreported as
// corrupt.
func TestOldSpoolVersionRejected(t *testing.T) {
	for _, fixture := range []string{"v1-pending-job.json", "v2-pending-job.json", "v3-pending-job.json"} {
		t.Run(fixture, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			var jf jobFile
			if err := json.Unmarshal(data, &jf); err != nil {
				t.Fatal(err)
			}
			if jf.Version >= spoolVersion {
				t.Fatalf("fixture version %d is not older than %d", jf.Version, spoolVersion)
			}
			// Without the version bump the file would fail here instead.
			if fp, err := jobFingerprint(&jf.Job); err != nil || fp == jf.Fingerprint {
				t.Fatalf("v%d job re-fingerprints as %q (err %v); the format change is not visible", jf.Version, fp, err)
			}

			s, err := OpenSpool(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.jobPath(StatePending, jf.Job.ID), data, 0o644); err != nil {
				t.Fatal(err)
			}
			jobs, errs := s.Load()
			if len(jobs) != 0 {
				t.Fatalf("v%d job loaded: %+v", jf.Version, jobs[0])
			}
			want := fmt.Sprintf("version %d, want %d", jf.Version, spoolVersion)
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), want) {
				t.Fatalf("load errors = %v, want one %q", errs, want)
			}
		})
	}
}
