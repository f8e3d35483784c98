package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"xbsim/internal/obs"
)

// profileArgs keeps the cost-profiler tests fast: one benchmark, small
// program scale.
var profileArgs = []string{"-benchmarks", "swim", "-ops", "400000", "-interval", "8000"}

// TestCmdProfileCostMode is the CI profile-smoke check in library form:
// `xbsim profile` (no -bench) must report a per-binary cost table, a
// coverage line, and the walk-3 accounting line.
func TestCmdProfileCostMode(t *testing.T) {
	out := runCmd(t, "profile", append([]string{"-top", "50"}, profileArgs...)...)

	for _, bin := range []string{"swim.32u", "swim.32o", "swim.64u", "swim.64o"} {
		if n := strings.Count(out, " "+bin+" "); n != 1 {
			t.Errorf("cost table has %d %s rows, want 1:\n%s", n, bin, out)
		}
	}
	if !strings.Contains(out, "4 binaries") {
		t.Errorf("header does not count 4 binaries:\n%s", out)
	}
	if !strings.Contains(out, "coverage:") {
		t.Errorf("no coverage line:\n%s", out)
	}
	// Every point is answered from walk 3's deltas: the memo line must
	// report a 100% hit rate.
	if !strings.Contains(out, "memo:") || !strings.Contains(out, "(100% hit rate)") {
		t.Errorf("memo summary missing or below full hit rate:\n%s", out)
	}
	if strings.Contains(out, "memo: 0 hits") {
		t.Errorf("memo summary shows no traffic:\n%s", out)
	}
}

// TestCmdProfileJSON pins -json: one row per binary, whose wall time is
// the sum of that binary's stage.full_sim span durations and whose
// instruction columns are the suite's results.
func TestCmdProfileJSON(t *testing.T) {
	o := obs.New()
	var sb strings.Builder
	if err := run(obs.With(context.Background(), o), "profile", append([]string{"-json"}, profileArgs...), &sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rows []costRow `json:"rows"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%.400s", err, sb.String())
	}
	want := map[string]time.Duration{}
	for _, s := range o.Events.Spans() {
		if s.Name == "stage.full_sim" {
			want[s.Detail] += s.Dur
		}
	}
	if len(doc.Rows) != 4 || len(want) != 4 {
		t.Fatalf("%d rows, %d binaries with full_sim spans; want 4 and 4", len(doc.Rows), len(want))
	}
	for _, r := range doc.Rows {
		if r.WallNS <= 0 || r.WallNS != want[r.Binary].Nanoseconds() {
			t.Errorf("%s: row wall %dns, full_sim spans sum to %dns", r.Binary, r.WallNS, want[r.Binary].Nanoseconds())
		}
		if r.FLI == 0 || r.VLI == 0 || r.FLI >= r.Instructions || r.VLI >= r.Instructions {
			t.Errorf("%s: %d/%d point instructions of %d", r.Binary, r.FLI, r.VLI, r.Instructions)
		}
	}
}

// TestCmdProfileLegacyMode pins that the original call/branch profile,
// once selected by profile -bench, lives on as the callprofile verb and
// shares no output with profile, the cost profiler.
func TestCmdProfileLegacyMode(t *testing.T) {
	out := runCmd(t, "callprofile", "-bench", "swim", "-target", "32u", "-ops", "400000")
	for _, want := range []string{"instructions,", "procedures:", "loops"} {
		if !strings.Contains(out, want) {
			t.Errorf("callprofile output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "memo:") {
		t.Errorf("callprofile leaked cost-profiler output:\n%s", out)
	}
}

// TestCmdProfileReusesObserver pins that the cost profiler composes with
// the global observability flags: an observer on the context keeps its
// event log and registry, and the run's spans and metrics land in them.
func TestCmdProfileReusesObserver(t *testing.T) {
	o := obs.New()
	events := o.Events
	ctx := obs.With(context.Background(), o)
	var sb strings.Builder
	if err := run(ctx, "profile", profileArgs, &sb); err != nil {
		t.Fatal(err)
	}
	if o.Events != events {
		t.Fatal("global observer's event log was replaced")
	}
	n := 0
	for _, s := range events.Spans() {
		if s.Name == "stage.full_sim" {
			n++
		}
	}
	if n != 4 {
		t.Errorf("%d stage.full_sim spans in the global event log, want 4", n)
	}
	if o.Metrics.Snapshot().Counters["sim.full.instructions"] == 0 {
		t.Error("per-walk metrics missing from the global registry")
	}
}
