package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"xbsim/internal/obs"
	"xbsim/internal/program"
)

// A checkpoint must round-trip a result so that the reload fingerprints
// identically — including NaN point CPIs, which plain JSON cannot carry.
func TestCheckpointRoundTrip(t *testing.T) {
	res, err := runBenchmark(context.Background(), "mcf", testConfig("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfgFP := testConfig("mcf").fingerprint()
	if err := saveCheckpoint(dir, res, cfgFP); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadCheckpoint(dir, "mcf", cfgFP)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Fingerprint(), res.Fingerprint(); got != want {
		t.Fatalf("reloaded fingerprint %s != saved %s", got, want)
	}
	if loaded.Runs[0].Binary.Name != res.Runs[0].Binary.Name {
		t.Fatalf("binary name lost: %q", loaded.Runs[0].Binary.Name)
	}

	// Absent checkpoint: the sentinel, so callers can tell "never ran"
	// from "ran but invalid".
	if _, err := loadCheckpoint(dir, "gzip", cfgFP); !errors.Is(err, errNoCheckpoint) {
		t.Fatalf("missing checkpoint: %v, want errNoCheckpoint", err)
	}
	// A different configuration looks in its own scope subdirectory and
	// finds nothing — scoping is what makes shared checkpoint dirs safe.
	other := testConfig("mcf")
	other.Seed = "other"
	if _, err := loadCheckpoint(dir, "mcf", other.fingerprint()); !errors.Is(err, errNoCheckpoint) {
		t.Fatalf("config mismatch: %v, want errNoCheckpoint (disjoint scope)", err)
	}
	// A file smuggled across scopes (copied by hand into the other
	// config's subdirectory) must still fail the in-file ConfigFP check.
	data, err := os.ReadFile(checkpointPath(dir, cfgFP, "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	smuggled := checkpointPath(dir, other.fingerprint(), "mcf")
	if err := os.MkdirAll(filepath.Dir(smuggled), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(smuggled, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(dir, "mcf", other.fingerprint()); err == nil || errors.Is(err, errNoCheckpoint) {
		t.Fatalf("smuggled checkpoint: %v, want validation error", err)
	}
}

// An interrupted suite must resume: already-checkpointed benchmarks are
// loaded, the rest computed, and the combined suite is bit-identical to
// an uninterrupted run.
func TestSuiteResumeIsBitIdentical(t *testing.T) {
	fresh, err := RunCtx(context.Background(), testConfig("gzip", "mcf"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// "Interrupted" run: only the first benchmark completed.
	cfg1 := testConfig("gzip")
	cfg1.CheckpointDir = dir
	if _, err := RunCtx(context.Background(), cfg1); err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	cfg2 := testConfig("gzip", "mcf")
	cfg2.CheckpointDir = dir
	resumed, err := RunCtx(obs.With(context.Background(), o), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Counter("pipeline.checkpoints_loaded").Value(); n != 1 {
		t.Fatalf("checkpoints_loaded = %d, want 1", n)
	}
	if got, want := resumed.Fingerprint(), fresh.Fingerprint(); got != want {
		t.Fatalf("resumed suite diverged: %s != %s", got, want)
	}

	// A third run finds both checkpoints and computes nothing.
	o2 := obs.New()
	again, err := RunCtx(obs.With(context.Background(), o2), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if n := o2.Counter("pipeline.checkpoints_loaded").Value(); n != 2 {
		t.Fatalf("checkpoints_loaded on full resume = %d, want 2", n)
	}
	if n := o2.Counter("pipeline.benchmarks_completed").Value(); n != 0 {
		t.Fatalf("benchmarks recomputed on full resume: %d", n)
	}
	if got, want := again.Fingerprint(), fresh.Fingerprint(); got != want {
		t.Fatalf("fully resumed suite diverged: %s != %s", got, want)
	}
}

// Golden guard: a corrupted checkpoint — payload edited, recorded
// fingerprint left alone — must be detected by the fingerprint check
// and recomputed, not trusted.
func TestCorruptCheckpointDetectedAndRecomputed(t *testing.T) {
	fresh, err := RunCtx(context.Background(), testConfig("mcf"))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := testConfig("mcf")
	cfg.CheckpointDir = dir
	if _, err := RunCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}

	// Corrupt the payload: nudge one measured number.
	path := checkpointPath(dir, cfg.fingerprint(), "mcf")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		t.Fatal(err)
	}
	ck.Benchmark.Runs[0].TrueCycles++
	tampered, err := json.Marshal(&ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	suite, err := RunCtx(obs.With(context.Background(), o), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Counter("pipeline.checkpoints_invalid").Value(); n != 1 {
		t.Fatalf("checkpoints_invalid = %d, want 1", n)
	}
	if n := o.Counter("pipeline.checkpoints_loaded").Value(); n != 0 {
		t.Fatalf("corrupt checkpoint was loaded (%d)", n)
	}
	if got, want := suite.Fingerprint(), fresh.Fingerprint(); got != want {
		t.Fatalf("recomputed suite diverged: %s != %s", got, want)
	}
	// The recomputation must also repair the checkpoint on disk.
	if _, err := loadCheckpoint(dir, "mcf", cfg.fingerprint()); err != nil {
		t.Fatalf("checkpoint not repaired after recomputation: %v", err)
	}
}

// Two suites under different configurations sharing one CheckpointDir
// must not clobber each other: config-fingerprint scoping gives each a
// disjoint subdirectory, so both resume from their own checkpoints
// afterward. (Before scoping, each suite's save replaced the other's
// file for the same benchmark with one failing the other's config
// validation — a shared dir destroyed resumability for both.)
func TestSharedCheckpointDirConcurrentConfigs(t *testing.T) {
	dir := t.TempDir()
	cfgA := testConfig("mcf", "gzip")
	cfgA.CheckpointDir = dir
	cfgB := testConfig("mcf", "gzip")
	cfgB.Seed = "other"
	cfgB.CheckpointDir = dir
	if cfgA.fingerprint() == cfgB.fingerprint() {
		t.Fatal("test configs must differ")
	}

	var wg sync.WaitGroup
	var errA, errB error
	var suiteA, suiteB *Suite
	wg.Add(2)
	go func() { defer wg.Done(); suiteA, errA = RunCtx(context.Background(), cfgA) }()
	go func() { defer wg.Done(); suiteB, errB = RunCtx(context.Background(), cfgB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}

	// Both suites must now fully resume from their own scoped
	// checkpoints: two loads, zero recomputations, identical results.
	for _, tc := range []struct {
		cfg   Config
		suite *Suite
	}{{cfgA, suiteA}, {cfgB, suiteB}} {
		o := obs.New()
		resumed, err := RunCtx(obs.With(context.Background(), o), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := o.Counter("pipeline.checkpoints_loaded").Value(); n != 2 {
			t.Fatalf("seed %q: checkpoints_loaded = %d, want 2", tc.cfg.Seed, n)
		}
		if n := o.Counter("pipeline.checkpoints_invalid").Value(); n != 0 {
			t.Fatalf("seed %q: checkpoints_invalid = %d, want 0 (cross-config clobbering)", tc.cfg.Seed, n)
		}
		if got, want := resumed.Fingerprint(), tc.suite.Fingerprint(); got != want {
			t.Fatalf("seed %q: resumed suite diverged: %s != %s", tc.cfg.Seed, got, want)
		}
	}
}

// Spec suites get the same checkpoint/resume behavior benchmarks do:
// spec names are content-derived and stable, so an interrupted
// RunSpecsCtx resumes per spec and finishes bit-identical.
func TestSpecSuiteCheckpointResume(t *testing.T) {
	specs := []program.Spec{program.RandomSpec(7, 0), program.RandomSpec(7, 1)}
	cfg := testConfig()
	fresh, err := RunSpecsCtx(context.Background(), specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(fresh.Results))
	}

	dir := t.TempDir()
	cfg1 := cfg
	cfg1.CheckpointDir = dir
	if _, err := RunSpecsCtx(context.Background(), specs[:1], cfg1); err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	resumed, err := RunSpecsCtx(obs.With(context.Background(), o), specs, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Counter("pipeline.checkpoints_loaded").Value(); n != 1 {
		t.Fatalf("checkpoints_loaded = %d, want 1", n)
	}
	if got, want := resumed.Fingerprint(), fresh.Fingerprint(); got != want {
		t.Fatalf("resumed spec suite diverged: %s != %s", got, want)
	}
}

// Failed benchmarks must not leave checkpoints behind.
func TestFailedBenchmarkWritesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig("nosuch")
	cfg.CheckpointDir = dir
	if _, err := RunCtx(context.Background(), cfg); err == nil {
		t.Fatal("unknown benchmark succeeded")
	}
	if _, err := os.Stat(checkpointPath(dir, cfg.fingerprint(), "nosuch")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint exists for failed benchmark: %v", err)
	}
}
