package main

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"xbsim/internal/faults"
	"xbsim/internal/invariant"
	"xbsim/internal/obs"
	"xbsim/internal/pinpoints"
)

// small shared flags keep the CLI tests fast.
var smallFlags = []string{"-ops", "400000", "-interval", "8000"}

func runCmd(t *testing.T, command string, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(context.Background(), command, args, &sb); err != nil {
		t.Fatalf("%s %v: %v", command, args, err)
	}
	return sb.String()
}

func TestCmdBenchmarks(t *testing.T) {
	out := runCmd(t, "benchmarks")
	lines := strings.Fields(out)
	if len(lines) != 21 {
		t.Fatalf("%d benchmarks listed", len(lines))
	}
	if !strings.Contains(out, "gcc") || !strings.Contains(out, "applu") {
		t.Fatal("expected benchmarks missing")
	}
}

func TestCmdUnknown(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), "bogus", nil, &sb); err != errUnknownCommand {
		t.Fatalf("err = %v", err)
	}
}

// Command-line mistakes must surface as usageError (exit status 2),
// distinct from runtime failures (exit status 1).
func TestUsageErrors(t *testing.T) {
	var sb strings.Builder
	var ue usageError
	if err := run(context.Background(), "profile", []string{"-nope"}, &sb); !errors.As(err, &ue) {
		t.Errorf("undefined flag: err = %v (%T), want usageError", err, err)
	}
	// "experiment" is no alias of figures: an unknown verb, exit 2.
	if err := run(context.Background(), "experiment", nil, &sb); err != errUnknownCommand {
		t.Errorf("experiment verb: err = %v, want errUnknownCommand", err)
	}
	if err := run(context.Background(), "map", []string{"-bench", ""}, &sb); !errors.As(err, &ue) {
		t.Errorf("missing -bench: err = %v (%T), want usageError", err, err)
	}
	if err := run(context.Background(), "points", append([]string{"-bench", "art", "-flavor", "zzz"}, smallFlags...), &sb); !errors.As(err, &ue) {
		t.Errorf("bad flavor: err = %v (%T), want usageError", err, err)
	}
	// Runtime failures (here: an unknown benchmark name) must NOT be
	// usage errors.
	if err := run(context.Background(), "callprofile", append([]string{"-bench", "nope"}, smallFlags...), &sb); err == nil || errors.As(err, &ue) {
		t.Errorf("unknown benchmark: err = %v (%T), want non-usage error", err, err)
	}
	// estimate checks its flags before it runs the suite: exit 2 for a
	// missing -bench or a bad -flavor, exit 1 for an unknown benchmark.
	if err := run(context.Background(), "estimate", smallFlags, &sb); !errors.As(err, &ue) {
		t.Errorf("estimate without -bench: err = %v (%T), want usageError", err, err)
	}
	if err := run(context.Background(), "estimate", append([]string{"-bench", "art", "-flavor", "zzz"}, smallFlags...), &sb); !errors.As(err, &ue) {
		t.Errorf("estimate bad flavor: err = %v (%T), want usageError", err, err)
	}
	if err := run(context.Background(), "estimate", append([]string{"-bench", "nope"}, smallFlags...), &sb); err == nil || errors.As(err, &ue) {
		t.Errorf("estimate unknown benchmark: err = %v (%T), want non-usage error", err, err)
	}
}

// An observer threaded through run() must pick up simulator metrics and
// stage spans from a subcommand.
func TestCmdSimulateObservability(t *testing.T) {
	o := obs.New()
	ctx := obs.With(context.Background(), o)
	var sb strings.Builder
	args := append([]string{"-bench", "swim", "-target", "32o"}, smallFlags...)
	if err := run(ctx, "simulate", args, &sb); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["sim.full.instructions"] == 0 {
		t.Error("sim.full.instructions not recorded")
	}
	if snap.Counters["exec.runs"] == 0 {
		t.Error("exec.runs not recorded")
	}
	names := o.Events.StageNames()
	for _, want := range []string{"stage.full_sim", "exec.run"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("span %q missing from %v", want, names)
		}
	}
}

// The per-binary call/branch profile is the callprofile verb.
func TestCmdProfile(t *testing.T) {
	out := runCmd(t, "callprofile", append([]string{"-bench", "gzip", "-target", "64o"}, smallFlags...)...)
	for _, want := range []string{"gzip.64o: ", "instructions,", "procedures:", "main", "loops"} {
		if !strings.Contains(out, want) {
			t.Errorf("callprofile output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdProfileErrors(t *testing.T) {
	var sb strings.Builder
	var ue usageError
	if err := run(context.Background(), "profile", append([]string{"-benchmarks", "nope"}, smallFlags...), &sb); err == nil {
		t.Error("unknown benchmark subset accepted")
	}
	// The per-binary profile is the callprofile verb: -bench is not a
	// profile flag.
	if err := run(context.Background(), "profile", []string{"-bench", "gzip"}, &sb); !errors.As(err, &ue) {
		t.Errorf("profile -bench: err = %v (%T), want usageError", err, err)
	}
	// The flamegraph writer is gone; -trace-out's Chrome trace opens in
	// speedscope and Perfetto.
	if err := run(context.Background(), "profile", []string{"-flame-out", "f.json"}, &sb); !errors.As(err, &ue) {
		t.Errorf("profile -flame-out: err = %v (%T), want usageError", err, err)
	}
	if err := run(context.Background(), "callprofile", append([]string{"-bench", "gzip", "-target", "99"}, smallFlags...), &sb); !errors.As(err, &ue) {
		t.Errorf("bad target: err = %v (%T), want usageError", err, err)
	}
	if err := run(context.Background(), "callprofile", append([]string{"-bench", "nope"}, smallFlags...), &sb); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// A positional argument ends flag parsing, so a stray one would silently
// drop the flags after it. Every verb but trace must refuse it as a
// usage error, before doing any work.
func TestStrayArgumentIsUsageError(t *testing.T) {
	var ue usageError
	for name := range commands {
		if name == "trace" {
			continue
		}
		var sb strings.Builder
		if err := run(context.Background(), name, []string{"stray"}, &sb); !errors.As(err, &ue) {
			t.Errorf("%s stray: err = %v (%T), want usageError", name, err, err)
		}
	}
	var sb strings.Builder
	args := []string{"-bench", "gzip", "extra", "-target", "64o", "-ops", "200000"}
	if err := run(context.Background(), "simulate", args, &sb); !errors.As(err, &ue) {
		t.Errorf("simulate %v: err = %v (%T), want usageError", args, err, err)
	}
	if sb.Len() != 0 {
		t.Errorf("simulate with a stray argument printed output:\n%s", sb.String())
	}
	// trace takes exactly one job or trace ID.
	for _, args := range [][]string{{"-spool", t.TempDir()}, {"-spool", t.TempDir(), "a", "b"}} {
		if err := run(context.Background(), "trace", args, &sb); !errors.As(err, &ue) {
			t.Errorf("trace %v: err = %v (%T), want usageError", args, err, err)
		}
	}
}

func TestCmdMap(t *testing.T) {
	out := runCmd(t, "map", append([]string{"-bench", "crafty"}, smallFlags...)...)
	for _, want := range []string{"mappable points", "proc", "loop-entry", "heuristic-matched"} {
		if !strings.Contains(out, want) {
			t.Errorf("map output missing %q", want)
		}
	}
}

func TestCmdPointsStdoutAndFile(t *testing.T) {
	out := runCmd(t, "points", append([]string{"-bench", "art", "-flavor", "fli", "-target", "32u"}, smallFlags...)...)
	if !strings.Contains(out, `"flavor": "fli"`) {
		t.Fatalf("points stdout not a region file:\n%s", out)
	}
	path := filepath.Join(t.TempDir(), "points.json")
	runCmd(t, "points", append([]string{"-bench", "art", "-flavor", "vli", "-target", "64u", "-o", path}, smallFlags...)...)
	f, err := pinpoints.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Flavor != pinpoints.FlavorVLI || f.Binary != "art.64u" {
		t.Fatalf("file %+v", f)
	}
}

func TestCmdPointsBadFlavor(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), "points", append([]string{"-bench", "art", "-flavor", "zzz"}, smallFlags...), &sb); err == nil {
		t.Fatal("bad flavor accepted")
	}
}

func TestCmdSimulate(t *testing.T) {
	out := runCmd(t, "simulate", append([]string{"-bench", "swim", "-target", "32o"}, smallFlags...)...)
	for _, want := range []string{"swim.32o", "CPI", "L1D", "DRAM accesses"} {
		if !strings.Contains(out, want) {
			t.Errorf("simulate output missing %q", want)
		}
	}
}

func TestCmdEstimate(t *testing.T) {
	out := runCmd(t, "estimate", append([]string{"-bench", "swim", "-flavor", "vli"}, smallFlags...)...)
	for _, want := range []string{"swim.32u", "swim.64o", "true CPI", "est CPI"} {
		if !strings.Contains(out, want) {
			t.Errorf("estimate output missing %q", want)
		}
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 5 {
		t.Fatalf("estimate printed %d lines, want header + 4 binaries", len(lines))
	}
}

func TestCmdFiguresOnlyTable1(t *testing.T) {
	out := runCmd(t, "figures", "-only", "table1")
	if !strings.Contains(out, "TABLE 1") || !strings.Contains(out, "512KB") {
		t.Fatalf("table1 output wrong:\n%s", out)
	}
}

func TestCmdFiguresQuickSubset(t *testing.T) {
	out := runCmd(t, "figures", "-quick", "-benchmarks", "swim", "-only", "fig4")
	if !strings.Contains(out, "FIG4") || !strings.Contains(out, "swim") {
		t.Fatalf("fig4 output wrong:\n%s", out)
	}
	var sb strings.Builder
	if err := run(context.Background(), "figures", []string{"-quick", "-benchmarks", "swim", "-only", "fig9"}, &sb); err == nil {
		t.Fatal("unknown artifact accepted")
	}
}

func TestCmdAblationsSingle(t *testing.T) {
	out := runCmd(t, "ablations", "-benchmarks", "swim", "-only", "inline")
	if !strings.Contains(out, "Inlined-loop heuristic ablation") {
		t.Fatalf("ablation output wrong:\n%s", out)
	}
	var sb strings.Builder
	if err := run(context.Background(), "ablations", []string{"-only", "zzz"}, &sb); err == nil {
		t.Fatal("unknown ablation accepted")
	}
}

func TestCmdFiguresJSON(t *testing.T) {
	out := runCmd(t, "figures", "-quick", "-benchmarks", "swim", "-json")
	if !strings.Contains(out, `"benchmarks"`) || !strings.Contains(out, `"figures"`) {
		t.Fatalf("json output wrong:\n%.200s", out)
	}
	var sb strings.Builder
	if err := run(context.Background(), "figures", []string{"-quick", "-benchmarks", "swim", "-json", "-only", "fig1"}, &sb); err == nil {
		t.Fatal("-json with -only accepted")
	}
}

// verify runs every invariant of package invariant on one named
// benchmark, through the same checker selfcheck uses.
func TestCmdVerify(t *testing.T) {
	out := runCmd(t, "verify", append([]string{"-bench", "gzip"}, smallFlags...)...)
	if !strings.Contains(out, "gzip: all cross-binary invariants hold") || strings.Contains(out, "FAIL") {
		t.Fatalf("verify output wrong:\n%s", out)
	}
	for _, name := range invariant.Invariants {
		if !strings.Contains(out, "ok   "+name+" ") {
			t.Errorf("verify output missing invariant %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "budget-monotonicity          trivial") {
		t.Errorf("simpoint verify: budget-monotonicity not trivial:\n%s", out)
	}
	// Under the stratified sampler budget-monotonicity re-picks at a
	// second budget and compares the errors: it is no longer trivial.
	out = runCmd(t, "verify", append([]string{"-bench", "gzip", "-sampler", "stratified"}, smallFlags...)...)
	if !strings.Contains(out, "gzip: all cross-binary invariants hold") || strings.Contains(out, "FAIL") {
		t.Fatalf("stratified verify output wrong:\n%s", out)
	}
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, " budget-monotonicity ") {
			line = l
		}
	}
	if line == "" || strings.Contains(line, "trivial") {
		t.Errorf("stratified verify: budget-monotonicity line %q, want a non-trivial check:\n%s", line, out)
	}
	var sb strings.Builder
	if err := run(context.Background(), "verify", append([]string{"-bench", "nope"}, smallFlags...), &sb); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := run(context.Background(), "verify", append([]string{"-bench", "gzip", "-sampler", "bogus"}, smallFlags...), &sb); err == nil {
		t.Error("unknown sampler backend accepted")
	}
}

func TestCmdPhases(t *testing.T) {
	out := runCmd(t, "phases", append([]string{"-bench", "swim", "-flavor", "vli", "-width", "40"}, smallFlags...)...)
	if !strings.Contains(out, "phases over execution") || !strings.Contains(out, "= phase 0") {
		t.Fatalf("phases output wrong:\n%s", out)
	}
	var sb strings.Builder
	if err := run(context.Background(), "phases", append([]string{"-bench", "swim", "-flavor", "zzz"}, smallFlags...), &sb); err == nil {
		t.Fatal("bad flavor accepted")
	}
}

func TestCmdFiguresDetail(t *testing.T) {
	out := runCmd(t, "figures", "-quick", "-benchmarks", "swim", "-detail")
	for _, want := range []string{"== swim", "phases over execution", "pair"} {
		if !strings.Contains(out, want) {
			t.Fatalf("detail output missing %q", want)
		}
	}
}

func TestCmdSelfcheck(t *testing.T) {
	out := runCmd(t, "selfcheck", "-n", "2", "-seed", "1", "-ops", "90000", "-programs")
	for _, want := range []string{
		"selfcheck: 2 randomized programs, seed 1",
		"marker-counts", "symbol-counts", "boundary-translate",
		"interval-coverage", "weight-sum",
		"order-invariance", "worker-invariance", "cpi-sanity",
		"spec-", "all invariants hold across 2 programs",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("selfcheck output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("selfcheck reported a failure:\n%s", out)
	}
}

func TestCmdSelfcheckUsageErrors(t *testing.T) {
	var sb strings.Builder
	var ue usageError
	if err := run(context.Background(), "selfcheck", []string{"-n", "0"}, &sb); !errors.As(err, &ue) {
		t.Errorf("-n 0: err = %v (%T), want usageError", err, err)
	}
	if err := run(context.Background(), "selfcheck", []string{"-nope"}, &sb); !errors.As(err, &ue) {
		t.Errorf("undefined flag: err = %v (%T), want usageError", err, err)
	}
}

// An injected fault fails exactly the benchmark it lands in: figures
// renders the other with the FAILED appendix naming the fault, and
// exits non-zero.
func TestCmdFiguresInjectedFaultReportsPartialSuite(t *testing.T) {
	ctx := faults.With(context.Background(), faults.NewInjector(
		faults.Rule{Stage: "mapping", Index: 0, Kind: faults.KindError}))
	var sb strings.Builder
	err := run(ctx, "figures", []string{"-quick", "-benchmarks", "swim,mcf"}, &sb)
	if !faults.Injected(err) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	out := sb.String()
	if !strings.Contains(out, "FAILED BENCHMARKS (1)") || !strings.Contains(out, "injected error fault at mapping") {
		t.Fatalf("failure appendix missing:\n%s", out)
	}
	if !strings.Contains(out, "swim") || !strings.Contains(out, "mcf") {
		t.Fatalf("report does not name both benchmarks:\n%s", out)
	}
}

// A failing benchmark must still render the completed ones, with the
// explicit failure appendix, and exit non-zero.
func TestCmdFiguresPartialSuite(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), "figures", []string{"-quick", "-benchmarks", "swim,nosuch"}, &sb)
	if err == nil {
		t.Fatal("suite with unknown benchmark reported success")
	}
	out := sb.String()
	if !strings.Contains(out, "FAILED BENCHMARKS (1)") || !strings.Contains(out, "nosuch") {
		t.Fatalf("failure appendix missing:\n%s", out)
	}
	if !strings.Contains(out, "swim") {
		t.Fatalf("completed benchmark missing from partial report:\n%s", out)
	}
}

// -checkpoint-dir must make a rerun resume from checkpoints and emit
// byte-identical JSON.
func TestCmdFiguresCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-quick", "-benchmarks", "swim", "-json", "-checkpoint-dir", dir}
	first := runCmd(t, "figures", args...)
	// Checkpoints live in per-config-fingerprint subdirectories.
	matches, err := filepath.Glob(filepath.Join(dir, "cfg-*", "swim.ckpt.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("checkpoint not written: %v %v", matches, err)
	}
	resumed := runCmd(t, "figures", args...)
	if resumed != first {
		t.Fatalf("resumed JSON diverged:\n--- first ---\n%.400s\n--- resumed ---\n%.400s", first, resumed)
	}
}

// selfcheck must record per-invariant counters through an observer.
func TestCmdSelfcheckObservability(t *testing.T) {
	o := obs.New()
	ctx := obs.With(context.Background(), o)
	var sb strings.Builder
	if err := run(ctx, "selfcheck", []string{"-n", "1", "-ops", "90000"}, &sb); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["selfcheck.pipeline.pass"] != 1 {
		t.Errorf("selfcheck.pipeline.pass = %d, want 1", snap.Counters["selfcheck.pipeline.pass"])
	}
	if snap.Counters["selfcheck.weight-sum.pass"] != 1 {
		t.Errorf("selfcheck.weight-sum.pass = %d, want 1", snap.Counters["selfcheck.weight-sum.pass"])
	}
}

// Under default warming no gated walk runs, so `-v figures` prints no
// progress line for one.
func TestCmdFiguresProgressShowsOnlyWalksThatRun(t *testing.T) {
	o := obs.New()
	var progress strings.Builder
	o.Progress = obs.NewProgress(&progress)
	var sb strings.Builder
	if err := run(obs.With(context.Background(), o), "figures", []string{"-quick", "-benchmarks", "gzip"}, &sb); err != nil {
		t.Fatal(err)
	}
	lines := progress.String()
	if strings.Contains(lines, "gated simulation") || !strings.Contains(lines, "(gzip.32u) full simulation") {
		t.Fatalf("progress lines:\n%s", lines)
	}
}

// `serve` without a spool is a usage error, and unknown presets from
// the HTTP surface never reach the scheduler (covered in internal/serve);
// here we only pin the CLI-level validation.
func TestCmdServeUsage(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), "serve", []string{}, &sb)
	var ue usageError
	if !errors.As(err, &ue) {
		t.Fatalf("serve without -spool: %v", err)
	}
}
