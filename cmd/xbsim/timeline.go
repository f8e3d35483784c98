package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"xbsim/internal/jobqueue"
	"xbsim/internal/obs"
)

// cmdTrace implements `xbsim trace <job-id|trace-id>`: build one served
// job's end-to-end timeline, either live from a running service (-url)
// or offline from a spool directory (-spool, for post-mortem inspection
// of a stopped or crashed service). Both read the job's journal, spans
// included.
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

// timelineFromSpool builds the timeline from a spool directory without
// a running service, through the same Spool.Timeline a live service
// uses: the job is resolved from the journaled state files (by job ID,
// canonical trace, or coalesced trace) and its journal is read once,
// spans included.
func timelineFromSpool(key, dir string, jsonOut bool, w io.Writer) error {
	sp, err := jobqueue.OpenSpool(dir)
	if err != nil {
		return err
	}
	jobs, _ := sp.Load() // a corrupt record costs itself, not the lookup
	tl, err := sp.Timeline(key, jobs)
	if errors.Is(err, jobqueue.ErrNotFound) {
		return fmt.Errorf("timeline %s: no such job or trace in %s", key, dir)
	}
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(tl)
	}
	return tl.WriteTable(w)
}
