package experiment

import (
	"context"
	"fmt"

	"xbsim/internal/compiler"
	"xbsim/internal/mapping"
)

// AblationRow is one configuration's summary in an ablation study.
type AblationRow struct {
	// Label names the configuration ("threshold=0.7", "procs-only", ...).
	Label string
	// Values holds the metrics, parallel to the table's Columns.
	Values []float64
}

// AblationTable is an ablation study's results.
type AblationTable struct {
	// Title describes the study.
	Title string
	// Columns names the metrics.
	Columns []string
	// Rows holds one entry per configuration.
	Rows []AblationRow
}

// suiteSummary condenses a suite into the ablation metrics: average
// simulation point count, average VLI interval size (x target), average
// CPI error, and average speedup error per method across all pair
// configurations.
func suiteSummary(s *Suite) (points, intervalX, cpiErrVLI, speedupErrFLI, speedupErrVLI float64) {
	n := 0
	for _, r := range s.Results {
		for _, run := range r.Runs {
			points += float64(run.VLI.NumPoints)
			intervalX += run.VLI.AvgIntervalInstrs / float64(s.Config.IntervalSize)
			cpiErrVLI += run.VLI.CPIError
			n++
		}
		for _, p := range append(append([]Pair{}, SamePlatformPairs...), CrossPlatformPairs...) {
			speedupErrFLI += r.SpeedupError(p, false)
			speedupErrVLI += r.SpeedupError(p, true)
		}
	}
	pairs := float64(4 * len(s.Results))
	return points / float64(n), intervalX / float64(n), cpiErrVLI / float64(n),
		speedupErrFLI / pairs, speedupErrVLI / pairs
}

var ablationColumns = []string{
	"vli_points", "vli_interval_x_target", "vli_cpi_err", "fli_speedup_err", "vli_speedup_err",
}

func summaryRow(label string, s *Suite) AblationRow {
	p, ix, ce, sf, sv := suiteSummary(s)
	return AblationRow{Label: label, Values: []float64{p, ix, ce, sf, sv}}
}

// pickSweep runs cfg's suite once per variant i < n, where vary sets
// variant i's pick-side settings. Each benchmark's walks 1–3 run once
// and every variant picks from them. Any failure fails the sweep.
func pickSweep(cfg Config, n int, vary func(c *Config, i int)) ([]*Suite, error) {
	if n == 0 {
		return nil, nil
	}
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = cfg
		vary(&cfgs[i], i)
	}
	return runVariants(context.Background(), cfgs)
}

// AblationBICThreshold sweeps SimPoint's BIC model-selection threshold.
// Lower thresholds accept smaller k (fewer points, coarser phases).
func AblationBICThreshold(cfg Config, thresholds []float64) (*AblationTable, error) {
	t := &AblationTable{Title: "BIC threshold ablation", Columns: ablationColumns}
	suites, err := pickSweep(cfg, len(thresholds), func(c *Config, i int) { c.BICThreshold = thresholds[i] })
	if err != nil {
		return nil, err
	}
	for i, th := range thresholds {
		t.Rows = append(t.Rows, summaryRow(fmt.Sprintf("threshold=%.2f", th), suites[i]))
	}
	return t, nil
}

// AblationProjectionDim sweeps the random projection dimensionality.
// SimPoint's default is 15; too few dimensions blur distinct behaviors.
func AblationProjectionDim(cfg Config, dims []int) (*AblationTable, error) {
	t := &AblationTable{Title: "Projection dimension ablation", Columns: ablationColumns}
	suites, err := pickSweep(cfg, len(dims), func(c *Config, i int) { c.Dim = dims[i] })
	if err != nil {
		return nil, err
	}
	for i, d := range dims {
		t.Rows = append(t.Rows, summaryRow(fmt.Sprintf("dim=%d", d), suites[i]))
	}
	return t, nil
}

// AblationMarkerGranularity compares mappable-point vocabularies:
// procedure entries only, plus loop entries, plus loop bodies (the paper's
// full set). Richer vocabularies cut intervals closer to the target size.
func AblationMarkerGranularity(cfg Config) (*AblationTable, error) {
	t := &AblationTable{Title: "Marker granularity ablation", Columns: ablationColumns}
	variants := []struct {
		label string
		opts  mapping.Options
	}{
		{"procs-only", mapping.Options{DisableLoopEntries: true, DisableLoopBodies: true, DisableInlineHeuristic: true}},
		{"+loop-entries", mapping.Options{DisableLoopBodies: true}},
		{"+loop-bodies", mapping.Options{}},
	}
	for _, v := range variants {
		c := cfg
		c.Mapping = v.opts
		s, err := RunCtx(context.Background(), c)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, summaryRow(v.label, s))
	}
	return t, nil
}

// AblationInlineHeuristic toggles the §3.3 inlined-loop matcher.
func AblationInlineHeuristic(cfg Config) (*AblationTable, error) {
	t := &AblationTable{Title: "Inlined-loop heuristic ablation", Columns: ablationColumns}
	for _, v := range []struct {
		label   string
		disable bool
	}{{"heuristic-on", false}, {"heuristic-off", true}} {
		c := cfg
		c.Mapping.DisableInlineHeuristic = v.disable
		s, err := RunCtx(context.Background(), c)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, summaryRow(v.label, s))
	}
	return t, nil
}

// AblationEarlyPoints sweeps the early-simulation-point tolerance,
// reporting how far into execution the average chosen point sits (the
// fast-forward cost) against the accuracy metrics.
func AblationEarlyPoints(cfg Config, tolerances []float64) (*AblationTable, error) {
	t := &AblationTable{
		Title:   "Early simulation points ablation",
		Columns: []string{"avg_point_position", "vli_cpi_err", "fli_speedup_err", "vli_speedup_err"},
	}
	suites, err := pickSweep(cfg, len(tolerances), func(c *Config, i int) { c.EarlyTolerance = tolerances[i] })
	if err != nil {
		return nil, err
	}
	for i, tol := range tolerances {
		s := suites[i]
		// Average normalized position of the chosen VLI points: 0 = start
		// of execution, 1 = end.
		var pos float64
		n := 0
		for _, r := range s.Results {
			run := r.Runs[r.Primary]
			for _, iv := range run.VLI.PointInterval {
				if iv >= 0 && run.VLI.NumIntervals > 1 {
					pos += float64(iv) / float64(run.VLI.NumIntervals-1)
					n++
				}
			}
		}
		if n > 0 {
			pos /= float64(n)
		}
		_, _, ce, sf, sv := suiteSummary(s)
		t.Rows = append(t.Rows, AblationRow{
			Label:  fmt.Sprintf("tolerance=%.2f", tol),
			Values: []float64{pos, ce, sf, sv},
		})
	}
	return t, nil
}

// AblationWarming toggles functional cache warming during fast-forward in
// region simulations. Without warming, small simulation regions start on
// stale cache state and the CPI estimates acquire cold-start bias — the
// reason CMP$im-style functional simulators warm during fast-forward.
func AblationWarming(cfg Config) (*AblationTable, error) {
	t := &AblationTable{Title: "Functional warming ablation", Columns: ablationColumns}
	// Walk 3 always simulates with warming, so both rows share it.
	suites, err := pickSweep(cfg, 2, func(c *Config, i int) { c.DisableWarming = i == 1 })
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, summaryRow("warming-on", suites[0]), summaryRow("warming-off", suites[1]))
	return t, nil
}

// AblationPrimaryBinary varies which binary the VLIs are constructed from.
// The paper notes mapped intervals expand or shrink with this choice.
func AblationPrimaryBinary(cfg Config) (*AblationTable, error) {
	t := &AblationTable{Title: "Primary binary ablation", Columns: ablationColumns}
	for primary := range compiler.AllTargets {
		c := cfg
		c.Primary = primary
		s, err := RunCtx(context.Background(), c)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, summaryRow("primary="+compiler.AllTargets[primary].String(), s))
	}
	return t, nil
}
