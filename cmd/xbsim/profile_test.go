package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xbsim/internal/obs"
)

// profileArgs keeps the cost-profiler tests fast: one benchmark, small
// program scale.
var profileArgs = []string{"-benchmarks", "swim", "-ops", "400000", "-interval", "8000"}

// TestCmdProfileCostMode is the CI profile-smoke check in library form:
// `xbsim profile` (no -bench) must report a per-(binary, walk) cost
// table, a coverage line, and the walk-3 accounting line.
func TestCmdProfileCostMode(t *testing.T) {
	out := runCmd(t, "profile", append([]string{"-top", "50"}, profileArgs...)...)

	// One row per (binary, walk): 4 binaries × 3 walks.
	for _, walk := range []string{"full", "fli", "vli"} {
		if n := strings.Count(out, " "+walk+" "); n < 4 {
			t.Errorf("cost table has %d %q rows, want 4:\n%s", n, walk, out)
		}
	}
	for _, bin := range []string{"swim.32u", "swim.32o", "swim.64u", "swim.64o"} {
		if !strings.Contains(out, bin) {
			t.Errorf("cost table missing binary %s:\n%s", bin, out)
		}
	}
	if !strings.Contains(out, "coverage:") {
		t.Errorf("no coverage line:\n%s", out)
	}
	// With functional warming on (the default), every gate point is
	// answered from walk 3's deltas: the memo line must report a 100%
	// hit rate.
	if !strings.Contains(out, "memo:") || !strings.Contains(out, "(100% hit rate)") {
		t.Errorf("memo summary missing or below full hit rate:\n%s", out)
	}
	if strings.Contains(out, "memo: 0 hits") {
		t.Errorf("memo summary shows no traffic:\n%s", out)
	}
}

// TestCmdProfileFlameOut pins the flamegraph path: -flame-out must write
// a file that passes the speedscope structural validator.
func TestCmdProfileFlameOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flame.json")
	out := runCmd(t, "profile", append([]string{"-flame-out", path}, profileArgs...)...)
	if !strings.Contains(out, "wrote flamegraph") {
		t.Errorf("no flamegraph confirmation:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateSpeedscope(data); err != nil {
		t.Fatalf("flamegraph fails speedscope validation: %v", err)
	}
	if !strings.Contains(string(data), "walk:full") || !strings.Contains(string(data), "point:") {
		t.Errorf("flamegraph missing walk/point frames")
	}
}

// TestCmdProfileJSON pins -json: the raw attribution snapshot. The
// walk-3 accounting is not part of it; it lives in the pipeline.memo
// counters.
func TestCmdProfileJSON(t *testing.T) {
	out := runCmd(t, "profile", append([]string{"-json"}, profileArgs...)...)
	for _, want := range []string{`"nodes"`, `"walk": "vli"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON snapshot missing %s:\n%.400s", want, out)
		}
	}
	if strings.Contains(out, `"redundancy"`) {
		t.Errorf("JSON snapshot still carries the walk-3 accounting:\n%.400s", out)
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
// the global observability flags: an observer on the context gets the
// attribution profiler attached rather than replaced.
func TestCmdProfileReusesObserver(t *testing.T) {
	o := obs.New()
	ctx := obs.With(context.Background(), o)
	var sb strings.Builder
	if err := run(ctx, "profile", profileArgs, &sb); err != nil {
		t.Fatal(err)
	}
	if o.Attrib == nil {
		t.Fatal("global observer did not get the attribution profiler")
	}
	if len(o.Attrib.Snapshot().Nodes) == 0 {
		t.Error("attribution empty after profiled run")
	}
	if o.Metrics.Snapshot().Counters["sim.full.instructions"] == 0 {
		t.Error("per-walk metrics missing from the global registry")
	}
}
