package experiment

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xbsim/internal/obs"
)

// ablationConfig is an extra-small configuration so every ablation test
// stays fast.
func ablationConfig() Config {
	cfg := QuickConfig()
	cfg.Benchmarks = []string{"swim", "crafty"}
	cfg.TargetOps = 500_000
	cfg.IntervalSize = 8_000
	return cfg
}

func checkTable(t *testing.T, tab *AblationTable, rows int) {
	t.Helper()
	if len(tab.Rows) != rows {
		t.Fatalf("%s: %d rows, want %d", tab.Title, len(tab.Rows), rows)
	}
	for _, r := range tab.Rows {
		if len(r.Values) != len(tab.Columns) {
			t.Fatalf("%s/%s: %d values for %d columns", tab.Title, r.Label, len(r.Values), len(tab.Columns))
		}
		for i, v := range r.Values {
			if v < 0 {
				t.Fatalf("%s/%s: negative %s = %v", tab.Title, r.Label, tab.Columns[i], v)
			}
		}
	}
}

func TestAblationBICThreshold(t *testing.T) {
	tab, err := AblationBICThreshold(context.Background(), ablationConfig(), []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 2)
	// A lower threshold accepts smaller k, so it cannot pick more points.
	if tab.Rows[0].Values[0] > tab.Rows[1].Values[0] {
		t.Fatalf("threshold 0.5 picked more points (%v) than 0.9 (%v)",
			tab.Rows[0].Values[0], tab.Rows[1].Values[0])
	}
}

func TestAblationProjectionDim(t *testing.T) {
	tab, err := AblationProjectionDim(context.Background(), ablationConfig(), []int{4, 15})
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 2)
}

func TestAblationMarkerGranularity(t *testing.T) {
	tab, err := AblationMarkerGranularity(context.Background(), ablationConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 3)
	// Procedure-only boundaries are sparser, so intervals must be at
	// least as large as with the full marker vocabulary.
	procsOnly := tab.Rows[0].Values[1]
	full := tab.Rows[2].Values[1]
	if procsOnly < full {
		t.Fatalf("procs-only intervals (%vx) smaller than full vocabulary (%vx)", procsOnly, full)
	}
}

func TestAblationInlineHeuristic(t *testing.T) {
	tab, err := AblationInlineHeuristic(context.Background(), ablationConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 2)
}

func TestAblationPrimaryBinary(t *testing.T) {
	cfg := ablationConfig()
	cfg.Benchmarks = []string{"swim"}
	tab, err := AblationPrimaryBinary(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 4)
	// Choosing an optimized (smaller) binary as primary makes its VLIs
	// >= target there, but mapped intervals EXPAND in the unoptimized
	// binaries; choosing the unoptimized primary shrinks them. So the
	// interval-size multiple must be larger with an optimized primary
	// (rows 1 and 3) than the 32u primary (row 0).
	if tab.Rows[1].Values[1] <= tab.Rows[0].Values[1] {
		t.Fatalf("optimized primary (%vx) did not expand intervals vs unoptimized (%vx)",
			tab.Rows[1].Values[1], tab.Rows[0].Values[1])
	}
}

// TestAblationsRunUnderContext checks that an ablation study runs under
// its caller's context: an observed study records its stage spans, and a
// cancelled context stops it with context.Canceled.
func TestAblationsRunUnderContext(t *testing.T) {
	cfg := ablationConfig()
	cfg.Benchmarks = []string{"swim"}
	o := obs.New()
	if _, err := AblationBICThreshold(obs.With(context.Background(), o), cfg, []float64{0.9}); err != nil {
		t.Fatal(err)
	}
	stages := 0
	for _, v := range o.Events.Spans() {
		if strings.HasPrefix(v.Name, "stage.") {
			stages++
		}
	}
	if stages == 0 || o.Metrics.Counter("exec.runs").Value() == 0 {
		t.Fatalf("observed ablation recorded %d stage spans and %d walks", stages, o.Metrics.Counter("exec.runs").Value())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() (*AblationTable, error){
		"bic":     func() (*AblationTable, error) { return AblationBICThreshold(ctx, cfg, []float64{0.9}) },
		"markers": func() (*AblationTable, error) { return AblationMarkerGranularity(ctx, cfg) },
	} {
		if _, err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err = %v, want context.Canceled", name, err)
		}
	}
}
