package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the benchmark re-executes itself as a workload's child process.
func TestMain(m *testing.M) {
	if role := os.Getenv(childEnv); role != "" {
		os.Exit(childMain(role, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at a tiny size, timed and traced, and
// checks that each declared metric is reported with its declared unit
// and that every output check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []string{"0", "1"} {
		t.Run("trace="+trace, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "results.json")
			var stdout, stderr bytes.Buffer
			code := run([]string{"-smoke", "-seconds", "1", "-trace", trace,
				"-spec", filepath.Join("..", "BENCHMARK.json"), "-workdir", dir, "-o", out}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}

			declared := spec.EndToEnd
			if trace == "1" {
				declared = spec.PerLayer
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[key]; !ok {
					t.Errorf("last line lacks %q", key)
				}
			}
			if len(last) != 4 {
				t.Errorf("last line has %d keys, want 4", len(last))
			}

			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var rf resultsFile
			if err := json.Unmarshal(data, &rf); err != nil {
				t.Fatal(err)
			}
			if len(rf.Results) != len(workloads) {
				t.Fatalf("%d workloads reported, want %d", len(rf.Results), len(workloads))
			}
			for _, r := range rf.Results {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("%s: correct %v, %d of %d failed: %v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Problems)
				}
				for _, m := range declared {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s: no %s", r.Workload, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: %s in %s, declared %s", r.Workload, m.Name, got.Unit, m.Unit)
					}
				}
			}
		})
	}
}
