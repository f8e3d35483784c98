package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"xbsim"
	"xbsim/internal/experiment"
	"xbsim/internal/obs"
)

// cmdProfile is the pipeline cost profiler: it runs the quick suite
// serially and reports, per binary, the wall time of its full
// simulation (walk 3, read from the run's stage.full_sim spans) and the
// instructions simulated in full and in detail at the FLI and VLI
// points, plus how many gate points walk 3 answered.
func cmdProfile(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("profile")
	benchList := fs.String("benchmarks", "", "comma-separated benchmark subset (default = quick suite)")
	top := fs.Int("top", 15, "cost table rows")
	asJSON := fs.Bool("json", false, "emit the cost rows as JSON")
	ops, interval, _ := commonFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	return cmdProfileCost(ctx, w, *benchList, *top, *asJSON, *ops, *interval)
}

// cmdCallprofile prints one binary's Pin-style call and loop profile:
// procedures with their call counts, loop pieces with their entry and
// body counts.
func cmdCallprofile(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("callprofile")
	bench := fs.String("bench", "", "benchmark name")
	target := fs.String("target", "32u", "binary configuration")
	ops, _, seed := commonFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := buildBenchmark(*bench, *ops)
	if err != nil {
		return err
	}
	bi, err := pickBinary(*target)
	if err != nil {
		return err
	}
	p, err := xbsim.CollectProfile(ctx, b.Binaries[bi], xbsim.Input{Name: "ref", Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d instructions, %d symbols, %d loop pieces\n",
		p.Binary.Name, p.TotalInstructions, len(p.Procs), len(p.Loops))
	fmt.Fprintln(w, "procedures:")
	for _, pp := range p.Procs {
		fmt.Fprintf(w, "  %-12s line %-4d calls %d\n", pp.Symbol, pp.Line, pp.Count)
	}
	fmt.Fprintln(w, "loops (line 0 = debug info destroyed by optimization):")
	for _, lp := range p.Loops {
		fmt.Fprintf(w, "  line %-4d piece %d in %-12s entries %-8d iterations %d\n",
			lp.Line, lp.Piece, lp.EnclosingSymbol, lp.EntryCount, lp.BodyCount)
	}
	return nil
}

// cmdProfileCost runs the suite and renders its cost. The run is forced
// serial (Workers=1, Parallelism=1) so the walk spans do not overlap and
// their sum is comparable with the evaluate stage's wall time.
func cmdProfileCost(ctx context.Context, w io.Writer, benchList string, top int,
	asJSON bool, ops, interval uint64) error {

	cfg := experiment.QuickConfig()
	if benchList != "" {
		cfg.Benchmarks = strings.Split(benchList, ",")
	}
	if ops != 0 {
		cfg.TargetOps = ops
	}
	if interval != 0 {
		cfg.IntervalSize = interval
	}
	cfg.Workers = 1
	cfg.Parallelism = 1

	// Reuse the global observer when one is attached (-v, -trace-out, ...)
	// so its progress/trace sinks keep working; otherwise build a private
	// one. Either way the run needs an event log (the walk spans) and a
	// metrics registry (the evaluate-stage wall and the memo counters).
	o := obs.From(ctx)
	if o == nil {
		o = &obs.Observer{}
		ctx = obs.With(ctx, o)
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Events == nil {
		o.Events = obs.NewRecorder(0)
	}

	start := time.Now()
	suite, err := experiment.RunCtx(ctx, cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	rows := costRows(o.Events.Spans(), suite)

	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(struct {
			Rows []costRow `json:"rows"`
		}{rows})
	}
	return writeCostProfile(w, rows, o.Metrics.Snapshot(), wall, top)
}

// costRow is one binary's cost: the wall time of its full simulation
// and the instructions simulated in full and at each method's points.
type costRow struct {
	Benchmark string `json:"benchmark"`
	Binary    string `json:"binary"`
	// WallNS sums the binary's stage.full_sim spans (every attempt).
	WallNS int64 `json:"wall_ns"`
	// Instructions is the full run's length; FLI and VLI are the
	// instructions simulated in detail at each method's points.
	Instructions uint64 `json:"instructions"`
	FLI          uint64 `json:"fli_instructions"`
	VLI          uint64 `json:"vli_instructions"`
}

// costRows joins the run's stage.full_sim spans (whose detail names the
// binary) with the suite's per-binary results, one row per binary in
// suite order.
func costRows(spans []obs.SpanView, suite *experiment.Suite) []costRow {
	wall := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name == "stage.full_sim" {
			wall[s.Detail] += s.Dur
		}
	}
	var rows []costRow
	for _, res := range suite.Results {
		for _, run := range res.Runs {
			rows = append(rows, costRow{
				Benchmark: res.Name, Binary: run.Binary.Name,
				WallNS:       wall[run.Binary.Name].Nanoseconds(),
				Instructions: run.TotalInstructions,
				FLI:          run.FLI.SimulatedInstructions,
				VLI:          run.VLI.SimulatedInstructions,
			})
		}
	}
	return rows
}

// writeCostProfile renders the top-N cost rows by wall time, the
// evaluate-stage coverage line, and the walk-3 accounting.
func writeCostProfile(w io.Writer, rows []costRow, ms obs.Snapshot,
	wall time.Duration, top int) error {

	var simNS int64
	for _, r := range rows {
		simNS += r.WallNS
	}
	fmt.Fprintf(w, "profile: %.1fms suite wall, %d binaries, %.1fms in full simulation\n",
		float64(wall.Microseconds())/1000, len(rows), float64(simNS)/1e6)

	fmt.Fprintf(w, "  %-10s %-10s %10s %14s %12s %12s %8s\n",
		"benchmark", "binary", "wall", "instructions", "fli instr", "vli instr", "share")
	shown := append([]costRow(nil), rows...)
	sort.SliceStable(shown, func(i, j int) bool { return shown[i].WallNS > shown[j].WallNS })
	if len(shown) > top {
		shown = shown[:top]
	}
	for _, r := range shown {
		share := 0.0
		if simNS > 0 {
			share = float64(r.WallNS) / float64(simNS)
		}
		fmt.Fprintf(w, "  %-10s %-10s %8.1fms %14d %12d %12d %7.1f%%\n",
			r.Benchmark, r.Binary, float64(r.WallNS)/1e6, r.Instructions, r.FLI, r.VLI, share*100)
	}
	if len(rows) > len(shown) {
		fmt.Fprintf(w, "  ... %d more binaries (-top to widen)\n", len(rows)-len(shown))
	}

	// Coverage: the full-simulation spans against the evaluate stage's
	// own wall time. Walk 3 is the stage's hot loop, so the two should
	// agree closely; a gap means other work inside the stage.
	if h, ok := ms.Histograms["stage.evaluate.duration_us"]; ok && h.Sum > 0 {
		stageNS := h.Sum * 1000
		fmt.Fprintf(w, "  coverage: %.1fms in full simulation of %.1fms evaluate-stage wall (%.1f%%)\n",
			float64(simNS)/1e6, float64(stageNS)/1e6, float64(simNS)/float64(stageNS)*100)
	}

	// Walk-3 accounting: points answered from walk 3's deltas (hits) or
	// executed (misses; every point is a window of a full walk, so none).
	hits, misses := ms.Counters["pipeline.memo.hits"], ms.Counters["pipeline.memo.misses"]
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(w, "memo: %d hits, %d misses (%.0f%% hit rate)\n", hits, misses, rate*100)
	return nil
}
