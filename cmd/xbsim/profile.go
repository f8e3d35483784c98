package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"xbsim"
	"xbsim/internal/experiment"
	"xbsim/internal/obs"
)

// cmdProfile is the pipeline cost profiler: it runs the quick suite
// serially with the obs.Attribution profiler enabled and reports where
// the evaluate stage's wall time, allocation, and simulated instructions
// go, per (benchmark, binary, walk, point), plus how many gate points
// walk 3 answered and, with -flame-out, a speedscope-compatible
// flamegraph JSON.
func cmdProfile(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("profile")
	benchList := fs.String("benchmarks", "", "comma-separated benchmark subset (default = quick suite)")
	top := fs.Int("top", 15, "cost table rows")
	flameOut := fs.String("flame-out", "", "write a speedscope-compatible flamegraph JSON here")
	asJSON := fs.Bool("json", false, "emit the raw attribution snapshot as JSON")
	ops, interval, _ := commonFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	return cmdProfileCost(ctx, w, *benchList, *top, *flameOut, *asJSON, *ops, *interval)
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

// cmdProfileCost runs the suite with cost attribution on and renders the
// breakdown. The run is forced serial (Workers=1, Parallelism=1) so the
// process-wide allocation counters attribute exactly.
func cmdProfileCost(ctx context.Context, w io.Writer, benchList string, top int,
	flameOut string, asJSON bool, ops, interval uint64) error {

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
	// one. Either way the run needs a metrics registry (for the
	// stage.evaluate wall-coverage line) and the attribution profiler.
	o := obs.From(ctx)
	if o == nil {
		o = &obs.Observer{}
		ctx = obs.With(ctx, o)
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	att := obs.NewAttribution()
	o.Attrib = att

	start := time.Now()
	if _, err := experiment.RunCtx(ctx, cfg); err != nil {
		return err
	}
	wall := time.Since(start)
	snap := att.Snapshot()

	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(snap)
	}
	if flameOut != "" {
		f, err := os.Create(flameOut)
		if err != nil {
			return err
		}
		if err := obs.WriteSpeedscope(f, snap); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote flamegraph to %s (open at https://www.speedscope.app)\n", flameOut)
	}
	return writeCostProfile(w, snap, o.Metrics.Snapshot(), wall, top)
}

// writeCostProfile renders the attribution snapshot: the top-N cost
// table over walk-level nodes, the evaluate-stage coverage line, and the
// walk-3 accounting.
func writeCostProfile(w io.Writer, snap obs.AttribSnapshot, ms obs.Snapshot,
	wall time.Duration, top int) error {

	walks := snap.Walks()
	sort.SliceStable(walks, func(i, j int) bool {
		return walks[i].Value.WallNS > walks[j].Value.WallNS
	})
	attributed := snap.TotalWallNS()
	fmt.Fprintf(w, "profile: %.1fms suite wall, %d walk nodes, %.1fms attributed\n",
		float64(wall.Microseconds())/1000, len(walks), float64(attributed)/1e6)

	fmt.Fprintf(w, "  %-10s %-10s %-5s %10s %12s %14s %8s\n",
		"benchmark", "binary", "walk", "wall", "alloc", "instructions", "share")
	shown := walks
	if len(shown) > top {
		shown = shown[:top]
	}
	for _, n := range shown {
		share := 0.0
		if attributed > 0 {
			share = float64(n.Value.WallNS) / float64(attributed)
		}
		fmt.Fprintf(w, "  %-10s %-10s %-5s %8.1fms %12s %14d %7.1f%%\n",
			n.Benchmark, n.Binary, n.Walk, float64(n.Value.WallNS)/1e6,
			formatAllocBytes(n.Value.AllocBytes), n.Value.Instructions, share*100)
	}
	if len(walks) > len(shown) {
		fmt.Fprintf(w, "  ... %d more walk nodes (-top to widen)\n", len(walks)-len(shown))
	}

	// Coverage: the attributed walk wall time against the evaluate
	// stage's own resource accounting. The walks are the stage's hot
	// loops, so the two should agree closely; a gap means unattributed
	// work inside the stage.
	if h, ok := ms.Histograms["stage.evaluate.duration_us"]; ok && h.Sum > 0 {
		stageNS := h.Sum * 1000
		fmt.Fprintf(w, "  coverage: %.1fms attributed of %.1fms evaluate-stage wall (%.1f%%)\n",
			float64(attributed)/1e6, float64(stageNS)/1e6,
			float64(attributed)/float64(stageNS)*100)
	}

	// Walk-3 accounting: gate points answered from walk 3's deltas (hits)
	// or executed (misses).
	hits, misses := ms.Counters["pipeline.memo.hits"], ms.Counters["pipeline.memo.misses"]
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(w, "memo: %d hits, %d misses (%.0f%% hit rate), %d instructions not re-simulated\n",
		hits, misses, rate*100, ms.Counters["pipeline.memo.instructions_saved"])
	return nil
}

// formatAllocBytes renders a byte count with a binary unit.
func formatAllocBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
