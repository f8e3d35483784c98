package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xbsim/internal/jobqueue"
	"xbsim/internal/obs"
)

// microOps is how many operations each spool and journal microbenchmark
// times; the smoke test uses microOpsSmoke.
const microOps, microOpsSmoke = 2000, 50

// microbench times the durable-state operations a served job pays for,
// one call at a time on a scratch spool, and reports each one's median:
// journaling a job record, moving it between states, writing and
// reading a result (payload, a result this workload produced), and
// appending to a job's event journal. Read-backs check every write.
func microbench(opts childOptions, payload []byte, spans *spanLog, r *result) {
	n := microOps
	if opts.Smoke {
		n = microOpsSmoke
	}
	dir, err := os.MkdirTemp(opts.Workdir, "micro-")
	if err != nil {
		r.invalid("microbenchmarks: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	sp, err := jobqueue.OpenSpool(dir)
	if err != nil {
		r.invalid("microbenchmarks: %v", err)
		return
	}
	spans.name(-1, "microbenchmarks")

	jobs := make([]*jobqueue.Job, n)
	for i := range jobs {
		jobs[i] = &jobqueue.Job{ID: fmt.Sprintf("j-%016x", i), Submitted: time.Now(),
			Request: jobqueue.Request{Benchmarks: []string{"gzip"}}}
	}
	timeEach := func(name, metric string, op func(i int) error) {
		_, end := spans.open(-1, 0, name)
		defer end()
		us := make([]float64, n)
		for i := range us {
			t := time.Now()
			err := op(i)
			us[i] = float64(time.Since(t).Nanoseconds()) / 1e3
			r.Attempted++
			if err != nil {
				r.failOp("%s %d: %v", name, i, err)
			}
		}
		r.set(metric, sampled("us", us))
	}
	timeEach("spool.write", "jobqueue.spool_write_us", func(i int) error {
		return sp.Write(jobqueue.StatePending, jobs[i])
	})
	timeEach("spool.move", "jobqueue.spool_move_us", func(i int) error {
		return sp.Move(jobs[i], jobqueue.StatePending, jobqueue.StateRunning)
	})
	timeEach("spool.write_result", "jobqueue.result_write_us", func(i int) error {
		return sp.WriteResult(jobs[i].ID, payload)
	})
	timeEach("spool.read_result", "jobqueue.result_read_us", func(i int) error {
		data, err := sp.ReadResult(jobs[i].ID)
		if err == nil && !bytes.Equal(data, payload) {
			err = fmt.Errorf("read back %d bytes that differ from the %d written", len(data), len(payload))
		}
		return err
	})
	if loaded, errs := sp.Load(); len(errs) > 0 || len(loaded) != n {
		r.failOp("spool reload: %d of %d jobs, errors %v", len(loaded), n, errs)
	}

	journal := filepath.Join(dir, "journal.jsonl")
	rec := obs.NewRecorder(n)
	if err := rec.SetOutputPath(journal, 0); err != nil {
		r.invalid("opening the journal: %v", err)
		return
	}
	timeEach("journal.append", "obs.journal_append_us", func(i int) error {
		rec.Record(obs.PipelineEvent{Kind: "job.start", Detail: fmt.Sprintf("event %d", i)})
		return nil
	})
	if err := rec.CloseOutput(); err != nil {
		r.failOp("closing the journal: %v", err)
	}
	if evs, err := obs.ReadJournal(journal); err != nil || len(evs) != n {
		r.failOp("journal read back %d of %d events (%v)", len(evs), n, err)
	}
}
