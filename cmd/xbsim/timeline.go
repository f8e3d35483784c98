package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"xbsim/internal/jobqueue"
	"xbsim/internal/obs"
)

// cmdTrace implements `xbsim trace <job-id|trace-id>`: reconstruct one
// served job's end-to-end timeline, either live from a running service
// (-url, the normal path — includes this process's stage spans) or
// offline from a spool directory (-spool — journal events only, for
// post-mortem inspection of a stopped service).
func cmdTrace(_ context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("trace")
	url := fs.String("url", "", "base URL of a running xbsim serve (e.g. http://127.0.0.1:8080)")
	spool := fs.String("spool", "", "spool directory, read offline")
	jsonOut := fs.Bool("json", false, "emit JSON instead of the table")
	if err := parseArgs(fs, args, 1); err != nil {
		return err
	}
	key := fs.Arg(0)
	switch {
	case *url != "":
		return timelineFromURL(key, *url, *jsonOut, w)
	case *spool != "":
		return timelineFromSpool(key, *spool, *jsonOut, w)
	default:
		return usagef("trace needs -url (running service) or -spool (offline)")
	}
}

// timelineFromURL fetches /jobs/{key}/timeline from a running service.
// With -json the server's response body is written verbatim, so the
// output round-trips bit-exactly through the timeline JSON schema.
func timelineFromURL(key, url string, jsonOut bool, w io.Writer) error {
	resp, err := http.Get(strings.TrimSuffix(url, "/") + "/jobs/" + key + "/timeline")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("timeline %s: %s: %s", key, resp.Status, strings.TrimSpace(string(body)))
	}
	if jsonOut {
		_, err := w.Write(body)
		return err
	}
	var tl obs.Timeline
	if err := json.Unmarshal(body, &tl); err != nil {
		return fmt.Errorf("timeline %s: bad response JSON: %w", key, err)
	}
	return tl.WriteTable(w)
}

// timelineFromSpool reconstructs the timeline from a spool directory
// without a running service: the job is resolved from the journaled
// state files (by job ID, canonical trace, or coalesced trace), and its
// durable event journal is merged and phase-annotated. No process is
// attached, so there are no live stage spans.
func timelineFromSpool(key, dir string, jsonOut bool, w io.Writer) error {
	sp, err := jobqueue.OpenSpool(dir)
	if err != nil {
		return err
	}
	jobs, _ := sp.Load() // a corrupt record costs itself, not the lookup
	var job *jobqueue.Job
	for _, j := range jobs {
		if j.ID == key || j.TraceID == key {
			job = j
			break
		}
		for _, tr := range j.CoalescedTraces {
			if tr == key {
				job = j
				break
			}
		}
		if job != nil {
			break
		}
	}
	if job == nil {
		return fmt.Errorf("timeline %s: no such job or trace in %s", key, dir)
	}
	evs, err := obs.ReadJournal(sp.JournalPath(job.ID))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	tl := obs.BuildTimeline(obs.TimelineInput{
		TraceID: job.TraceID,
		JobID:   job.ID,
		Tenant:  job.Tenant,
		State:   string(job.State),
		Links:   job.CoalescedTraces,
		Events:  evs,
	})
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(tl)
	}
	return tl.WriteTable(w)
}
