// Package report renders the experiment's figures and tables as aligned
// ASCII, mirroring the artifacts in the paper: bar-chart figures become
// labeled rows with proportional bars, and the phase-bias tables become
// the side-by-side layout of Tables 2 and 3.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"xbsim/internal/cmpsim"
	"xbsim/internal/experiment"
	"xbsim/internal/obs"
)

// barWidth is the maximum bar length in characters.
const barWidth = 40

// Figure renders a figure as rows of labeled, scaled bars plus the
// numeric value.
func Figure(w io.Writer, f *experiment.Figure) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(f.ID), f.Title); err != nil {
		return err
	}
	maxVal := 0.0
	for _, s := range f.Series {
		for _, v := range s.Values {
			if !math.IsNaN(v) && v > maxVal {
				maxVal = v
			}
		}
	}
	nameWidth := 0
	for _, s := range f.Series {
		if len(s.Name) > nameWidth {
			nameWidth = len(s.Name)
		}
	}
	for i, label := range f.RowLabels {
		if _, err := fmt.Fprintf(w, "%s\n", label); err != nil {
			return err
		}
		for _, s := range f.Series {
			v := s.Values[i]
			bar := ""
			if maxVal > 0 && !math.IsNaN(v) {
				bar = strings.Repeat("#", int(v/maxVal*barWidth+0.5))
			}
			if _, err := fmt.Fprintf(w, "  %-*s %12s |%s\n",
				nameWidth, s.Name, formatValue(v, f.YLabel), bar); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// formatValue renders values per axis type: errors as percentages,
// instruction counts with thousands grouping, counts plainly.
func formatValue(v float64, yLabel string) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case strings.Contains(yLabel, "error"):
		return fmt.Sprintf("%.2f%%", v*100)
	case strings.Contains(yLabel, "instructions"):
		return groupThousands(uint64(v + 0.5))
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// groupThousands formats 1234567 as "1,234,567".
func groupThousands(n uint64) string {
	s := fmt.Sprintf("%d", n)
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}

// PhaseBias renders a Table 2/3-style comparison: the two methods stacked,
// each with the two binaries' largest phases side by side.
func PhaseBias(w io.Writer, tables []experiment.PhaseBias) error {
	if len(tables) == 0 {
		return fmt.Errorf("report: no phase tables")
	}
	head := tables[0]
	if _, err := fmt.Fprintf(w, "Phase comparison for %s: %s vs %s\n",
		head.Benchmark, head.BinaryA, head.BinaryB); err != nil {
		return err
	}
	const rowFmt = "  %-4s %-6s | %6s %9s %8s %8s | %6s %9s %8s %8s\n"
	if _, err := fmt.Fprintf(w, rowFmt, "", "Phase",
		"Weight", "True CPI", "SP CPI", "CPI Err",
		"Weight", "True CPI", "SP CPI", "CPI Err"); err != nil {
		return err
	}
	for _, tb := range tables {
		n := len(tb.RowsA)
		if len(tb.RowsB) > n {
			n = len(tb.RowsB)
		}
		for i := 0; i < n; i++ {
			method := ""
			if i == 0 {
				method = tb.Method
			}
			a := cells(tb.RowsA, i)
			b := cells(tb.RowsB, i)
			label := "-"
			if i < len(tb.RowsA) {
				label = fmt.Sprintf("%d", tb.RowsA[i].Phase+1)
			} else if i < len(tb.RowsB) {
				label = fmt.Sprintf("%d", tb.RowsB[i].Phase+1)
			}
			if _, err := fmt.Fprintf(w, rowFmt, method, label,
				a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// cells formats one phase row's four columns, or dashes when absent.
func cells(rows []experiment.PhaseRow, i int) [4]string {
	if i >= len(rows) {
		return [4]string{"-", "-", "-", "-"}
	}
	r := rows[i]
	sp := "-"
	if !math.IsNaN(r.SPCPI) {
		sp = fmt.Sprintf("%.2f", r.SPCPI)
	}
	return [4]string{
		fmt.Sprintf("%.2f", r.Weight),
		fmt.Sprintf("%.2f", r.TrueCPI),
		sp,
		fmt.Sprintf("%+.1f%%", r.Error*100),
	}
}

// Table1 renders the memory system configuration table.
func Table1(w io.Writer, cfg cmpsim.HierarchyConfig) error {
	if _, err := fmt.Fprintln(w, "TABLE 1 — Memory System Configuration"); err != nil {
		return err
	}
	const rowFmt = "  %-10s %9s %14s %10s %12s %10s\n"
	if _, err := fmt.Fprintf(w, rowFmt,
		"Cache", "Capacity", "Associativity", "Line Size", "Hit Latency", "Type"); err != nil {
		return err
	}
	for _, l := range cfg.Levels {
		if _, err := fmt.Fprintf(w, rowFmt, l.Name,
			byteSize(l.CapacityBytes),
			fmt.Sprintf("%d-way", l.Associativity),
			fmt.Sprintf("%d bytes", l.LineSize),
			fmt.Sprintf("%d cycles", l.HitLatency),
			"WriteBack"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, rowFmt, "DRAM", "", "", "",
		fmt.Sprintf("%d cycles", cfg.MemoryLatency), "")
	return err
}

// byteSize renders capacities in KB as the paper does.
func byteSize(b uint64) string {
	return fmt.Sprintf("%dKB", b>>10)
}

// PhaseTimeline renders a phase-per-interval sequence as a fixed-width
// strip (the classic SimPoint phase visualization): execution runs left
// to right, each column shows the dominant phase letter of that slice of
// intervals. A legend with per-phase interval counts follows.
func PhaseTimeline(w io.Writer, phaseOf []int, width int) error {
	if len(phaseOf) == 0 {
		return fmt.Errorf("report: empty phase sequence")
	}
	if width <= 0 {
		width = 64
	}
	if width > len(phaseOf) {
		width = len(phaseOf)
	}
	letter := func(p int) byte {
		if p < 26 {
			return byte('A' + p)
		}
		return '?'
	}
	var strip []byte
	counts := map[int]int{}
	for _, p := range phaseOf {
		counts[p]++
	}
	for col := 0; col < width; col++ {
		lo := col * len(phaseOf) / width
		hi := (col + 1) * len(phaseOf) / width
		if hi <= lo {
			hi = lo + 1
		}
		// Dominant phase in this slice.
		local := map[int]int{}
		best, bestN := phaseOf[lo], 0
		for _, p := range phaseOf[lo:hi] {
			local[p]++
			if local[p] > bestN {
				best, bestN = p, local[p]
			}
		}
		strip = append(strip, letter(best))
	}
	if _, err := fmt.Fprintf(w, "phases over execution (%d intervals):\n  |%s|\n",
		len(phaseOf), strip); err != nil {
		return err
	}
	var phases []int
	for p := range counts {
		phases = append(phases, p)
	}
	sort.Ints(phases)
	for _, p := range phases {
		if _, err := fmt.Fprintf(w, "  %c = phase %d (%d intervals, %.1f%%)\n",
			letter(p), p, counts[p], float64(counts[p])/float64(len(phaseOf))*100); err != nil {
			return err
		}
	}
	return nil
}

// Ablation renders an ablation study as an aligned table.
func Ablation(w io.Writer, t *experiment.AblationTable) error {
	if _, err := fmt.Fprintln(w, t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-18s", ""); err != nil {
		return err
	}
	for _, c := range t.Columns {
		if _, err := fmt.Fprintf(w, " %22s", c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintf(w, "  %-18s", r.Label); err != nil {
			return err
		}
		for _, v := range r.Values {
			if _, err := fmt.Fprintf(w, " %22.4f", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// SamplerComparison renders the cross-backend comparison table: one row
// per (backend, budget) configuration, CPI error against the simulated
// instruction budget each method paid for it.
func SamplerComparison(w io.Writer, cmp *experiment.SamplerComparison) error {
	if cmp == nil || len(cmp.Rows) == 0 {
		return fmt.Errorf("report: empty sampler comparison")
	}
	if _, err := fmt.Fprintf(w, "SAMPLER COMPARISON — CPI error vs simulated-instruction budget (%d benchmark(s))\n",
		len(cmp.Benchmarks)); err != nil {
		return err
	}
	const rowFmt = "  %-12s %6s %7s | %8s %13s %9s | %8s %13s %9s%s\n"
	if _, err := fmt.Fprintf(w, rowFmt, "backend", "budget", "points",
		"FLI err", "FLI sim", "FLI cost",
		"VLI err", "VLI sim", "VLI cost", ""); err != nil {
		return err
	}
	for _, r := range cmp.Rows {
		budget := "-"
		if r.Budget > 0 {
			budget = fmt.Sprintf("%d", r.Budget)
		}
		note := ""
		if r.Failures > 0 {
			note = fmt.Sprintf("  (%d failed)", r.Failures)
		}
		if _, err := fmt.Fprintf(w, rowFmt, r.Backend, budget,
			fmt.Sprintf("%d/%d", r.FLIPoints, r.VLIPoints),
			fmt.Sprintf("%.2f%%", r.FLIMeanCPIError*100),
			groupThousands(r.FLISimulatedInstructions),
			fmt.Sprintf("%.2f%%", r.FLISimulatedFraction*100),
			fmt.Sprintf("%.2f%%", r.VLIMeanCPIError*100),
			groupThousands(r.VLISimulatedInstructions),
			fmt.Sprintf("%.2f%%", r.VLISimulatedFraction*100),
			note); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "  (points are FLI/VLI totals across binaries; cost is simulated instructions over total)")
	return err
}

// BenchmarkDetail renders one benchmark's complete results: the
// per-binary CPI table with both methods, the four speedup pairs, and the
// cross-binary phase timeline.
func BenchmarkDetail(w io.Writer, r *experiment.BenchmarkResult) error {
	if _, err := fmt.Fprintf(w, "== %s (%d mappable points, primary %s)\n",
		r.Name, len(r.Mapping.Points), r.Runs[r.Primary].Binary.Name); err != nil {
		return err
	}
	const rowFmt = "  %-12s %13s %10s %10s %8s %10s %8s\n"
	if _, err := fmt.Fprintf(w, rowFmt, "binary", "instructions",
		"true CPI", "FLI est", "err", "VLI est", "err"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		if _, err := fmt.Fprintf(w, rowFmt,
			run.Binary.Name,
			groupThousands(run.TotalInstructions),
			fmt.Sprintf("%.3f", run.TrueCPI),
			fmt.Sprintf("%.3f", run.FLI.EstCPI),
			fmt.Sprintf("%.1f%%", run.FLI.CPIError*100),
			fmt.Sprintf("%.3f", run.VLI.EstCPI),
			fmt.Sprintf("%.1f%%", run.VLI.CPIError*100)); err != nil {
			return err
		}
	}
	pairs := append(append([]experiment.Pair{}, experiment.SamePlatformPairs...),
		experiment.CrossPlatformPairs...)
	const pairFmt = "  %-8s %10s %12s %8s %12s %8s\n"
	if _, err := fmt.Fprintf(w, pairFmt, "pair", "true",
		"FLI est", "err", "VLI est", "err"); err != nil {
		return err
	}
	for _, p := range pairs {
		if _, err := fmt.Fprintf(w, pairFmt, p.Name,
			fmt.Sprintf("%.3f", r.TrueSpeedup(p)),
			fmt.Sprintf("%.3f", r.EstimatedSpeedup(p, false)),
			fmt.Sprintf("%.1f%%", r.SpeedupError(p, false)*100),
			fmt.Sprintf("%.3f", r.EstimatedSpeedup(p, true)),
			fmt.Sprintf("%.1f%%", r.SpeedupError(p, true)*100)); err != nil {
			return err
		}
	}
	// Cross-binary phase timeline (phases are shared across binaries).
	if err := PhaseTimeline(w, r.Runs[r.Primary].VLI.PhaseOf, 72); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// SuiteDetail renders BenchmarkDetail for every benchmark in the suite.
func SuiteDetail(w io.Writer, s *experiment.Suite) error {
	for _, r := range s.Results {
		if err := BenchmarkDetail(w, r); err != nil {
			return err
		}
	}
	return nil
}

// Suite renders the whole evaluation: Table 1, all five figures, and the
// Table 2/3 phase comparisons (when their benchmarks are in the suite).
func Suite(w io.Writer, s *experiment.Suite) error {
	if err := Table1(w, s.Config.Hierarchy); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, f := range s.Figures() {
		if err := Figure(w, f); err != nil {
			return err
		}
	}
	// Table 2: gcc 32u vs 64u; Table 3: apsi 32o vs 64o.
	for _, spec := range []struct {
		bench string
		pair  experiment.Pair
	}{
		{"gcc", experiment.Pair{Name: "32u64u", A: 0, B: 2}},
		{"apsi", experiment.Pair{Name: "32o64o", A: 1, B: 3}},
	} {
		if s.ByName(spec.bench) == nil {
			continue
		}
		tables, err := s.PhaseBiasTables(spec.bench, spec.pair, 3)
		if err != nil {
			return err
		}
		if err := PhaseBias(w, tables); err != nil {
			return err
		}
	}
	return Failures(w, s.Failures)
}

// Failures renders the failure appendix of a partial suite: the
// benchmarks that did not complete, listed explicitly so a degraded run
// is never mistaken for a full one. An empty list writes nothing, so
// reports of complete suites are unchanged.
func Failures(w io.Writer, failures []experiment.BenchmarkFailure) error {
	if len(failures) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "FAILED BENCHMARKS (%d) — the results above are partial\n", len(failures)); err != nil {
		return err
	}
	for _, f := range failures {
		if _, err := fmt.Fprintf(w, "  %-10s %s\n", f.Name, f.Err); err != nil {
			return err
		}
	}
	return nil
}

// Appendix renders the observability appendix — the stage-timing tree and
// the metrics snapshot recorded while the suite ran. A nil observer writes
// nothing, so reports are byte-identical when observability is off.
func Appendix(w io.Writer, o *obs.Observer) error {
	if o == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w, "APPENDIX — pipeline observability"); err != nil {
		return err
	}
	if err := o.Events.WriteTree(w); err != nil {
		return err
	}
	if o.Metrics != nil {
		snap := o.Metrics.Snapshot()
		if err := StageResources(w, snap); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, "metrics:"); err != nil {
			return err
		}
		if err := snap.WriteText(w); err != nil {
			return err
		}
	}
	return nil
}

// StageResources renders the per-stage resource-accounting table from a
// metrics snapshot: attempts, total wall time, bytes allocated, GC
// cycles, and the peak goroutine count observed, one row per pipeline
// stage (the stage.<name>.* metric family recorded by runStage). A
// snapshot without stage metrics writes nothing.
func StageResources(w io.Writer, snap obs.Snapshot) error {
	var stages []string
	for _, name := range snap.HistogramNames() {
		if s, ok := strings.CutPrefix(name, "stage."); ok {
			if s, ok := strings.CutSuffix(s, ".duration_us"); ok {
				stages = append(stages, s)
			}
		}
	}
	if len(stages) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "stage resources:"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-18s %8s %12s %14s %6s %10s\n",
		"stage", "attempts", "wall", "alloc", "gc", "peak goros"); err != nil {
		return err
	}
	for _, s := range stages {
		h := snap.Histograms["stage."+s+".duration_us"]
		if _, err := fmt.Fprintf(w, "  %-18s %8d %11.1fms %14s %6d %10.0f\n",
			s, h.Count, float64(h.Sum)/1000,
			formatBytes(snap.Counters["stage."+s+".alloc_bytes"]),
			snap.Counters["stage."+s+".gc_cycles"],
			snap.Gauges["stage."+s+".goroutines_peak"]); err != nil {
			return err
		}
	}
	// alloc/gc are process-wide runtime deltas: exact under serial runs,
	// best-effort attribution when stages overlap (DESIGN.md §13).
	_, err := fmt.Fprintln(w, "  (alloc/gc are process-wide deltas; exact for serial runs)")
	return err
}

// formatBytes renders a byte count with a binary unit suffix.
func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
