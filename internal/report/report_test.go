package report

import (
	"context"
	"math"
	"strings"
	"testing"

	"xbsim/internal/cmpsim"
	"xbsim/internal/experiment"
	"xbsim/internal/obs"
)

func TestFigureRendering(t *testing.T) {
	f := &experiment.Figure{
		ID: "fig3", Title: "CPI error", YLabel: "relative error",
		RowLabels: []string{"gcc", "Avg"},
		Series: []experiment.FigureSeries{
			{Name: "FLI", Values: []float64{0.10, 0.10}},
			{Name: "VLI", Values: []float64{0.05, 0.05}},
		},
	}
	var sb strings.Builder
	if err := Figure(&sb, f); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FIG3", "gcc", "Avg", "FLI", "VLI", "10.00%", "5.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The FLI bar must be about twice the VLI bar.
	lines := strings.Split(out, "\n")
	var fliBar, vliBar int
	for _, l := range lines {
		if strings.Contains(l, "FLI") && strings.Contains(l, "#") {
			fliBar = strings.Count(l, "#")
		}
		if strings.Contains(l, "VLI") && strings.Contains(l, "#") {
			vliBar = strings.Count(l, "#")
		}
	}
	if fliBar == 0 || vliBar == 0 || fliBar < 2*vliBar-1 || fliBar > 2*vliBar+1 {
		t.Errorf("bar proportions wrong: FLI=%d VLI=%d", fliBar, vliBar)
	}
}

func TestFormatValue(t *testing.T) {
	if got := formatValue(0.123, "relative error"); got != "12.30%" {
		t.Errorf("error format: %q", got)
	}
	if got := formatValue(1234567, "instructions"); got != "1,234,567" {
		t.Errorf("instruction format: %q", got)
	}
	if got := formatValue(8.5, "simulation points"); got != "8.50" {
		t.Errorf("plain format: %q", got)
	}
	if got := formatValue(math.NaN(), "x"); got != "n/a" {
		t.Errorf("NaN format: %q", got)
	}
}

func TestGroupThousands(t *testing.T) {
	cases := map[uint64]string{
		0: "0", 999: "999", 1000: "1,000", 1234567: "1,234,567",
	}
	for in, want := range cases {
		if got := groupThousands(in); got != want {
			t.Errorf("groupThousands(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	var sb strings.Builder
	if err := Table1(&sb, cmpsim.DefaultHierarchyConfig()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"32KB", "512KB", "1024KB", "2-way", "8-way", "16-way",
		"3 cycles", "14 cycles", "35 cycles", "250 cycles", "WriteBack"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestPhaseBiasRendering(t *testing.T) {
	tables := []experiment.PhaseBias{
		{
			Benchmark: "gcc", Method: "VLI", BinaryA: "gcc.32u", BinaryB: "gcc.64u",
			RowsA: []experiment.PhaseRow{{Phase: 0, Weight: 0.35, TrueCPI: 3.16, SPCPI: 3.15, Error: -0.002}},
			RowsB: []experiment.PhaseRow{{Phase: 0, Weight: 0.28, TrueCPI: 2.97, SPCPI: 2.97, Error: 0.001}},
		},
		{
			Benchmark: "gcc", Method: "FLI", BinaryA: "gcc.32u", BinaryB: "gcc.64u",
			RowsA: []experiment.PhaseRow{{Phase: 2, Weight: 0.31, TrueCPI: 6.54, SPCPI: 2.90, Error: -0.56}},
			RowsB: []experiment.PhaseRow{
				{Phase: 1, Weight: 0.22, TrueCPI: 2.98, SPCPI: 2.97, Error: 0.005},
				{Phase: 4, Weight: 0.18, TrueCPI: 6.04, SPCPI: 7.04, Error: 0.17},
			},
		},
	}
	var sb strings.Builder
	if err := PhaseBias(&sb, tables); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"gcc.32u", "gcc.64u", "VLI", "FLI", "0.35", "3.16", "-56.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if err := PhaseBias(&sb, nil); err == nil {
		t.Error("empty tables accepted")
	}
}

func TestSuiteRendering(t *testing.T) {
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"gcc", "apsi"}
	cfg.TargetOps = 500_000
	cfg.IntervalSize = 8_000
	suite, err := experiment.RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Suite(&sb, suite); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"TABLE 1", "FIG1", "FIG2", "FIG3", "FIG4", "FIG5",
		"Phase comparison for gcc", "Phase comparison for apsi"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output missing %q", want)
		}
	}
}

func TestPhaseTimeline(t *testing.T) {
	phaseOf := make([]int, 100)
	for i := range phaseOf {
		if i >= 50 {
			phaseOf[i] = 1
		}
	}
	var sb strings.Builder
	if err := PhaseTimeline(&sb, phaseOf, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "|AAAAABBBBB|") {
		t.Fatalf("timeline strip wrong:\n%s", out)
	}
	if !strings.Contains(out, "A = phase 0 (50 intervals, 50.0%)") {
		t.Fatalf("legend wrong:\n%s", out)
	}
	if err := PhaseTimeline(&sb, nil, 10); err == nil {
		t.Fatal("empty sequence accepted")
	}
	// Width clamps to the sequence length.
	sb.Reset()
	if err := PhaseTimeline(&sb, []int{0, 1}, 100); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "|AB|") {
		t.Fatalf("clamped strip wrong:\n%s", sb.String())
	}
}

func TestAblationRendering(t *testing.T) {
	tab := &experiment.AblationTable{
		Title:   "Test ablation",
		Columns: []string{"metric_a", "metric_b"},
		Rows: []experiment.AblationRow{
			{Label: "variant-1", Values: []float64{1.5, 0.25}},
			{Label: "variant-2", Values: []float64{2.5, 0.50}},
		},
	}
	var sb strings.Builder
	if err := Ablation(&sb, tab); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Test ablation", "metric_a", "variant-2", "2.5000"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation rendering missing %q:\n%s", want, out)
		}
	}
}

func TestBenchmarkDetailRendering(t *testing.T) {
	cfg := experiment.QuickConfig()
	cfg.Benchmarks = []string{"swim"}
	cfg.TargetOps = 500_000
	cfg.IntervalSize = 8_000
	suite, err := experiment.RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := SuiteDetail(&sb, suite); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== swim", "swim.32u", "swim.64o",
		"32u32o", "32o64o", "phases over execution", "= phase 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("detail missing %q", want)
		}
	}
}

// The resource appendix must render one row per stage with the
// formatted wall/alloc/gc/goroutine columns, and stay silent when the
// snapshot has no stage metrics.
func TestStageResourcesTable(t *testing.T) {
	r := obs.NewRegistry()
	r.Histogram("stage.clustering.duration_us").Observe(2500)
	r.Counter("stage.clustering.alloc_bytes").Add(3 << 20)
	r.Counter("stage.clustering.gc_cycles").Add(2)
	r.Gauge("stage.clustering.goroutines_peak").Set(7)
	r.Histogram("kmeans.iterations_per_restart").Observe(4) // not a stage metric

	var b strings.Builder
	if err := StageResources(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"stage resources:", "clustering", "2.5ms", "3.00MiB", "process-wide"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "kmeans") {
		t.Errorf("non-stage metric leaked into the table:\n%s", out)
	}

	var empty strings.Builder
	if err := StageResources(&empty, obs.NewRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Errorf("empty snapshot rendered %q", empty.String())
	}
}
