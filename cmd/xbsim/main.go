// Command xbsim drives the Cross Binary Simulation Points toolchain from
// the shell: profile binaries, inspect mappable points, emit PinPoints-
// style region files, simulate, check the cross-binary invariants, and
// regenerate the paper's figures and tables.
//
// Usage:
//
//	xbsim benchmarks
//	xbsim callprofile -bench gcc -target 32u
//	xbsim map       -bench gcc
//	xbsim points    -bench gcc -flavor vli -target 64o -o points.json
//	xbsim simulate  -bench gcc -target 32u
//	xbsim estimate  -bench gcc -flavor vli
//	xbsim verify    -bench gcc
//	xbsim figures   [-quick] [-benchmarks gcc,apsi] [-only fig4]
//	xbsim -v -trace-out trace.json figures -quick
//
// Every verb takes flags only, except trace, which takes one job or
// trace ID after its flags; a stray argument is a usage error (exit 2).
//
// Global flags (before the command) enable observability: -v streams
// per-stage progress to stderr, -trace-out writes a Chrome trace_event
// JSON of every pipeline stage, -metrics-out dumps the metrics
// registry, -telemetry-addr serves live metrics/progress/events/pprof
// over HTTP, -events-out journals structured pipeline events as JSONL,
// and -profile-dir captures CPU and heap profiles.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"xbsim"
	"xbsim/internal/experiment"
	"xbsim/internal/faults"
	"xbsim/internal/invariant"
	"xbsim/internal/obs"
	"xbsim/internal/report"
	"xbsim/internal/telemetry"
)

func main() {
	gfs := flag.NewFlagSet("xbsim", flag.ContinueOnError)
	gfs.SetOutput(os.Stderr)
	gfs.Usage = usage
	verbose := gfs.Bool("v", false, "stream per-stage progress to stderr")
	traceOut := gfs.String("trace-out", "", "write a Chrome trace_event JSON file of the run")
	metricsOut := gfs.String("metrics-out", "", "write a metrics snapshot to this file ('-' = stderr)")
	telemetryAddr := gfs.String("telemetry-addr", "", "serve live /metrics, /progress, /events, /debug/pprof on this address (e.g. 127.0.0.1:9090)")
	profileDir := gfs.String("profile-dir", "", "capture cpu.pprof and heap.pprof of the run into this directory")
	eventsOut := gfs.String("events-out", "", "journal structured pipeline events to this file as JSONL")
	if err := gfs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	args := gfs.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	// Interrupts cancel the context instead of killing the process, so
	// the pipeline unwinds cleanly and every sink below still flushes —
	// the trace, events journal, and profiles survive a ^C mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var o *obs.Observer
	if *verbose || *traceOut != "" || *metricsOut != "" ||
		*telemetryAddr != "" || *profileDir != "" || *eventsOut != "" {
		o = obs.New()
		if *verbose {
			o.Progress = obs.NewProgress(os.Stderr)
		}
		ctx = obs.With(ctx, o)
	}

	sinks, err := startSinks(ctx, o, *traceOut, *telemetryAddr, *profileDir, *eventsOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xbsim:", err)
		os.Exit(1)
	}

	err = run(ctx, args[0], args[1:], os.Stdout)
	if serr := sinks.close(); err == nil {
		err = serr
	}
	if ferr := finishObservability(o, *verbose, *metricsOut); err == nil {
		err = ferr
	}
	exit(err, args[0])
}

// sinks holds the observability outputs that need an explicit flush or
// shutdown on the exit path.
type sinks struct {
	o          *obs.Observer
	traceFile  *os.File
	flushTrace func() error
	eventsFile *os.File
	server     *telemetry.Server
	profiles   *telemetry.Profiles
}

// startSinks opens the file- and network-backed observability outputs.
// The trace file is created up front and auto-flushed on context
// cancellation, so even an interrupted run leaves complete, loadable
// JSON.
func startSinks(ctx context.Context, o *obs.Observer, traceOut, telemetryAddr, profileDir, eventsOut string) (*sinks, error) {
	s := &sinks{o: o}
	if eventsOut != "" {
		f, err := os.Create(eventsOut)
		if err != nil {
			return nil, err
		}
		o.Events.SetOutput(f)
		s.eventsFile = f
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, err
		}
		s.traceFile = f
		s.flushTrace = o.Events.AutoFlush(ctx, f)
	}
	if telemetryAddr != "" {
		srv, err := telemetry.Start(telemetryAddr, o)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "xbsim: telemetry on http://%s\n", srv.Addr())
		s.server = srv
	}
	p, err := telemetry.StartProfiles(profileDir)
	if err != nil {
		return nil, err
	}
	s.profiles = p
	return s, nil
}

// close flushes and shuts down every sink, keeping the first error.
func (s *sinks) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	keep(s.profiles.Stop())
	keep(s.server.Close())
	if s.flushTrace != nil {
		keep(s.flushTrace())
		keep(s.traceFile.Close())
	}
	if s.eventsFile != nil {
		keep(s.o.Events.Flush())
		keep(s.eventsFile.Close())
	}
	return first
}

// exit maps an error to the process exit status: nil → 0, -h/--help → 0,
// command-line mistakes (unknown command, bad flags or arguments) → 2,
// runtime failures → 1.
func exit(err error, command string) {
	var ue usageError
	switch {
	case err == nil:
		return
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errUnknownCommand):
		fmt.Fprintf(os.Stderr, "xbsim: unknown command %q\n", command)
		usage()
		os.Exit(2)
	case errors.As(err, &ue):
		fmt.Fprintln(os.Stderr, "xbsim:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "xbsim:", err)
		os.Exit(1)
	}
}

// finishObservability renders the end-of-run views: the stage-timing
// tree under -v and the metrics dump under -metrics-out. (The trace
// file is handled by sinks, so it also survives interrupts.)
func finishObservability(o *obs.Observer, verbose bool, metricsOut string) error {
	if o == nil {
		return nil
	}
	if verbose {
		if err := o.Events.WriteTree(os.Stderr); err != nil {
			return err
		}
	}
	if metricsOut != "" {
		if metricsOut == "-" {
			return o.Metrics.WriteText(os.Stderr)
		}
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := o.Metrics.WriteText(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// errUnknownCommand reports an unrecognized subcommand.
var errUnknownCommand = fmt.Errorf("unknown command")

// usageError marks a command-line mistake (bad flag or argument), which
// exits with status 2, distinct from runtime failures (status 1).
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// usagef builds a usageError from a format string.
func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// newFlagSet returns a subcommand flag set that reports parse errors
// instead of exiting, so run() callers (main, tests) control the exit.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// parseFlags parses args, translating failures into usage errors and
// making -h/--help print the flag defaults and surface flag.ErrHelp.
// Flag parsing stops at the first positional argument, so a stray one
// would silently drop every flag after it: it is a usage error.
func parseFlags(fs *flag.FlagSet, args []string) error {
	return parseArgs(fs, args, 0)
}

// parseArgs is parseFlags for a verb that takes exactly n positional
// arguments after its flags.
func parseArgs(fs *flag.FlagSet, args []string, n int) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(os.Stderr)
			fs.Usage()
			return flag.ErrHelp
		}
		return usageError{err}
	}
	switch {
	case fs.NArg() == n:
		return nil
	case n == 0:
		return usagef("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	default:
		return usagef("%s: want %d argument(s) after the flags, got %d", fs.Name(), n, fs.NArg())
	}
}

// commands maps every verb to its implementation. A verb writes its
// output to w; the context may carry an obs.Observer to record metrics,
// spans, and progress.
var commands = map[string]func(ctx context.Context, args []string, w io.Writer) error{
	"benchmarks":  cmdBenchmarks,
	"callprofile": cmdCallprofile,
	"profile":     cmdProfile,
	"map":         cmdMap,
	"points":      cmdPoints,
	"simulate":    cmdSimulate,
	"estimate":    cmdEstimate,
	"phases":      cmdPhases,
	"figures":     cmdFigures,
	"ablations":   cmdAblations,
	"samplers":    cmdSamplers,
	"verify":      cmdVerify,
	"selfcheck":   cmdSelfcheck,
	"chaos":       cmdChaos,
	"serve":       cmdServe,
	"trace":       cmdTrace,
	"help":        cmdHelp,
	"-h":          cmdHelp,
	"--help":      cmdHelp,
}

// run dispatches a subcommand.
func run(ctx context.Context, command string, args []string, w io.Writer) error {
	cmd, ok := commands[command]
	if !ok {
		return errUnknownCommand
	}
	return cmd(ctx, args, w)
}

func cmdHelp(_ context.Context, args []string, _ io.Writer) error {
	if err := parseFlags(newFlagSet("help"), args); err != nil {
		return err
	}
	usage()
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `xbsim — Cross Binary Simulation Points (ISPASS 2007 reproduction)

commands:
  benchmarks                         list synthesizable benchmarks
  callprofile -bench B -target T     call/branch profile of one binary
  profile  [-top N] [-benchmarks L] [-json]
                                     run the quick suite serially: per-
                                     binary full-simulation wall and
                                     simulated instructions, walk-3
                                     accounting
  map      -bench B                  cross-binary mappable point summary
  points   -bench B -flavor F -target T [-o FILE]
                                     pick simulation points, emit regions
  simulate -bench B -target T       full-run CMP$im-style simulation
  estimate -bench B -flavor F       estimated vs true CPI, all binaries
  phases   -bench B [-flavor F]      phase timeline of the execution
  figures  [-quick] [-benchmarks L] [-only ID]
                                     regenerate the paper's figures/tables
  ablations [-benchmarks L] [-only S]
                                     design-choice ablation studies
  samplers [-benchmarks L] [-budgets 8,16] [-json]
                                     compare sampler backends: CPI error
                                     vs simulated-instruction budget
  verify   -bench B                  check every cross-binary invariant
                                     on this workload
  selfcheck [-n N] [-seed S] [-workers W]
                                     the same invariants on N randomized
                                     programs
  chaos    [-programs N] [-seed S] [-faults F] [-retries R]
                                     run randomized programs under injected
                                     fault schedules; recovered runs must be
                                     bit-identical to the fault-free baseline
  serve    -spool DIR [-addr A] [-concurrency N] [-max-pending N]
                                     run the durable analysis service:
                                     POST /jobs, crash-safe job journal,
                                     graceful drain on SIGTERM
  trace    (-url U | -spool D) [-json] JOB-OR-TRACE-ID
                                     reconstruct a served job's timeline:
                                     phases (queue-wait, run, resume,
                                     cache) + merged events and spans

common flags: -ops N (program scale), -interval N (interval size),
-seed S (input seed), -workers N (pool size for clustering/pipeline
work; 0 = GOMAXPROCS, 1 = serial — parallelism never changes results),
-sampler B / -sampler-budget N (point-selection backend: simpoint
(default) or stratified, and the stratified point budget)

global flags (before the command): -v (progress + timing tree),
-trace-out F (Chrome trace), -metrics-out F (metrics dump),
-telemetry-addr A (live /metrics /progress /events /debug/pprof),
-events-out F (JSONL event journal), -profile-dir D (cpu/heap pprof)`)
}

// commonFlags adds the scale/input flags shared by the data commands.
func commonFlags(fs *flag.FlagSet) (ops *uint64, interval *uint64, seed *uint64) {
	ops = fs.Uint64("ops", 2_000_000, "approximate abstract operations per run")
	interval = fs.Uint64("interval", 25_000, "interval size in instructions")
	seed = fs.Uint64("seed", 0x5EED, "input seed")
	return
}

// workersFlag adds the worker-pool knob shared by the point-picking
// commands. Parallelism never changes the chosen points, only wall clock.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "clustering worker pool size (0 = GOMAXPROCS, 1 = serial; never changes the numbers)")
}

// samplerFlags adds the point-selection backend knobs shared by the
// commands that pick simulation points.
func samplerFlags(fs *flag.FlagSet) (backend *string, budget *int) {
	backend = fs.String("sampler", "", "point-selection backend: simpoint (default) or stratified")
	budget = fs.Int("sampler-budget", 0, "stratified point budget (0 = backend default)")
	return
}

func cmdBenchmarks(_ context.Context, args []string, w io.Writer) error {
	if err := parseFlags(newFlagSet("benchmarks"), args); err != nil {
		return err
	}
	for _, n := range xbsim.Benchmarks() {
		fmt.Fprintln(w, n)
	}
	return nil
}

func buildBenchmark(name string, ops uint64) (*xbsim.Benchmark, error) {
	if name == "" {
		return nil, usagef("-bench is required")
	}
	return xbsim.NewBenchmark(name, ops)
}

// pickBinary returns the index of target's compilation in a Benchmark's
// Binaries, which follow AllTargets order.
func pickBinary(target string) (int, error) {
	for i, t := range xbsim.AllTargets {
		if t.String() == target {
			return i, nil
		}
	}
	return 0, usagef("unknown target %q (want 32u, 32o, 64u, 64o)", target)
}

func cmdMap(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("map")
	bench := fs.String("bench", "", "benchmark name")
	ops, interval, seed := commonFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := buildBenchmark(*bench, *ops)
	if err != nil {
		return err
	}
	a, err := xbsim.Analyze(ctx, b.Binaries, xbsim.ExperimentConfig{
		IntervalSize: *interval, Input: xbsim.Input{Name: "ref", Seed: *seed}})
	if err != nil {
		return err
	}
	m := a.Mapping
	byKind := map[string]int{}
	for _, pt := range m.Points {
		byKind[pt.Kind.String()]++
	}
	var kinds []string
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "%s: %d mappable points across %d binaries\n", *bench, len(m.Points), len(m.Binaries))
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-12s %d\n", k, byKind[k])
	}
	fmt.Fprintf(w, "  heuristic-matched inlined loops: %d (ambiguous: %d)\n",
		m.Diag.HeuristicMatched, m.Diag.HeuristicAmbiguous)
	for bi, bin := range m.Binaries {
		fmt.Fprintf(w, "  %-10s loops: %d total, %d without a mappable entry\n",
			bin.Name, m.Diag.LoopsPerBinary[bi], m.Diag.UnmappedLoopsPerBinary[bi])
	}
	return nil
}

func cmdPoints(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("points")
	bench := fs.String("bench", "", "benchmark name")
	target := fs.String("target", "32u", "binary configuration")
	flavor := fs.String("flavor", "vli", "fli (per-binary) or vli (cross-binary)")
	out := fs.String("o", "", "write PinPoints-style JSON here (default stdout)")
	ops, interval, seed := commonFlags(fs)
	workers := workersFlag(fs)
	sampler, samplerBudget := samplerFlags(fs)
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
	if *flavor != "fli" && *flavor != "vli" {
		return usagef("unknown flavor %q", *flavor)
	}
	in := xbsim.Input{Name: "ref", Seed: *seed}
	a, err := xbsim.Analyze(ctx, b.Binaries, xbsim.ExperimentConfig{IntervalSize: *interval, Input: in,
		Workers: *workers, Sampler: *sampler, SamplerBudget: *samplerBudget})
	if err != nil {
		return err
	}
	var ps *xbsim.PointSet
	if *flavor == "fli" {
		ps, err = a.PerBinaryPoints(ctx, bi)
	} else {
		var cross *xbsim.CrossPoints
		if cross, err = a.CrossBinaryPoints(ctx); err == nil {
			ps, err = cross.ForBinary(ctx, bi)
		}
	}
	if err != nil {
		return err
	}
	f, err := ps.RegionFile(in)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := f.Save(*out); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d regions to %s\n", len(f.Regions), *out)
		return nil
	}
	return f.Write(w)
}

func cmdSimulate(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("simulate")
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
	bin := b.Binaries[bi]
	st, err := xbsim.SimulateFull(ctx, bin, xbsim.Input{Name: "ref", Seed: *seed}, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d instructions, %d cycles, CPI %.3f\n",
		bin.Name, st.Instructions, st.Cycles, st.CPI())
	names := []string{"L1D", "L2D", "L3D"}
	for i := range st.LevelHits {
		fmt.Fprintf(w, "  %s: %d hits, %d misses (miss rate %.2f%%)\n",
			names[i], st.LevelHits[i], st.LevelMisses[i], st.MissRate(i)*100)
	}
	fmt.Fprintf(w, "  DRAM accesses: %d\n", st.MemoryAccesses)
	return nil
}

// cmdEstimate runs the one-benchmark suite and prints each binary's
// sampled CPI against its full-run CPI: the numbers `figures -benchmarks
// B -detail` reports.
func cmdEstimate(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("estimate")
	bench := fs.String("bench", "", "benchmark name")
	flavor := fs.String("flavor", "vli", "fli or vli")
	ops, interval, seed := commonFlags(fs)
	workers := workersFlag(fs)
	sampler, samplerBudget := samplerFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *bench == "" {
		return usagef("-bench is required")
	}
	if *flavor != "fli" && *flavor != "vli" {
		return usagef("unknown flavor %q", *flavor)
	}
	suite, err := xbsim.RunExperimentsCtx(ctx, xbsim.ExperimentConfig{
		Benchmarks: []string{*bench}, TargetOps: *ops, IntervalSize: *interval,
		Input:   xbsim.Input{Name: "ref", Seed: *seed},
		Workers: *workers, Sampler: *sampler, SamplerBudget: *samplerBudget,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %12s %10s %10s %8s\n", "binary", "instructions", "true CPI", "est CPI", "error")
	for _, run := range suite.Results[0].Runs {
		ms := run.VLI
		if *flavor == "fli" {
			ms = run.FLI
		}
		e := (ms.EstCPI - run.TrueCPI) / run.TrueCPI
		fmt.Fprintf(w, "%-10s %12d %10.3f %10.3f %+7.2f%%\n",
			run.Binary.Name, run.TotalInstructions, run.TrueCPI, ms.EstCPI, e*100)
	}
	return nil
}

func cmdFigures(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("figures")
	quick := fs.Bool("quick", false, "use the reduced five-benchmark configuration")
	benchList := fs.String("benchmarks", "", "comma-separated benchmark subset")
	only := fs.String("only", "", "emit a single artifact: table1, fig1..fig5, table2, table3")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of the ASCII report")
	detail := fs.Bool("detail", false, "emit per-benchmark detail (per-binary tables, speedups, phase timeline)")
	workers := fs.Int("workers", 0, "intra-benchmark worker pool size (0 = GOMAXPROCS, 1 = serial; never changes the numbers)")
	retries := fs.Int("retries", 0, "retry budget per pipeline stage for transient failures (0 = fail fast)")
	stageTimeout := fs.Duration("stage-timeout", 0, "per-stage deadline; expiries are retried under -retries (0 = none)")
	ckptDir := fs.String("checkpoint-dir", "", "persist per-benchmark checkpoints here and resume from validating ones")
	inject := fs.String("inject", "", "fault rules to inject, comma-separated stage@index:kind[:duration] (testing)")
	sampler, samplerBudget := samplerFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg := xbsim.FullExperimentConfig()
	if *quick {
		cfg = xbsim.QuickExperimentConfig()
	}
	if *benchList != "" {
		cfg.Benchmarks = strings.Split(*benchList, ",")
	}
	cfg.Workers = *workers
	cfg.Sampler = *sampler
	cfg.SamplerBudget = *samplerBudget
	cfg.Retry = xbsim.RetryPolicy{MaxRetries: *retries}
	cfg.StageTimeout = *stageTimeout
	cfg.CheckpointDir = *ckptDir
	if *inject != "" {
		rules, err := faults.ParseRules(*inject)
		if err != nil {
			return usageError{err}
		}
		ctx = faults.With(ctx, faults.NewInjector(rules...))
	}
	if *only == "table1" {
		return report.Table1(w, cfg.Hierarchy)
	}
	suite, err := xbsim.RunExperimentsCtx(ctx, cfg)
	if err != nil {
		// Degrade gracefully: when some benchmarks completed, render the
		// partial suite — its report carries an explicit failure
		// appendix — and still exit non-zero.
		if suite == nil || len(suite.Results) == 0 {
			return err
		}
		fmt.Fprintf(os.Stderr, "xbsim: %d benchmark(s) failed, reporting partial results\n", len(suite.Failures))
		if rerr := renderSuite(ctx, w, suite, *asJSON, *detail, *only); rerr != nil {
			return rerr
		}
		return err
	}
	return renderSuite(ctx, w, suite, *asJSON, *detail, *only)
}

// renderSuite writes the suite in the format the figures flags selected.
func renderSuite(ctx context.Context, w io.Writer, suite *xbsim.Suite, asJSON, detail bool, only string) error {
	if asJSON {
		if only != "" {
			return usagef("-json emits the whole suite; drop -only")
		}
		return suite.WriteJSON(w)
	}
	if detail {
		return report.SuiteDetail(w, suite)
	}
	switch only {
	case "":
		return xbsim.WriteReportCtx(ctx, w, suite)
	case "fig1", "fig2", "fig3", "fig4", "fig5":
		for _, f := range suite.Figures() {
			if f.ID == only {
				return report.Figure(w, f)
			}
		}
		return fmt.Errorf("figure %q not produced", only)
	case "table2":
		tables, err := suite.PhaseBiasTables("gcc", experiment.Pair{Name: "32u64u", A: 0, B: 2}, 3)
		if err != nil {
			return err
		}
		return report.PhaseBias(w, tables)
	case "table3":
		tables, err := suite.PhaseBiasTables("apsi", experiment.Pair{Name: "32o64o", A: 1, B: 3}, 3)
		if err != nil {
			return err
		}
		return report.PhaseBias(w, tables)
	default:
		return usagef("unknown artifact %q", only)
	}
}

// cmdAblations runs the design-choice ablation studies (DESIGN.md §5).
func cmdAblations(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("ablations")
	benchList := fs.String("benchmarks", "swim,crafty,applu", "comma-separated benchmark subset")
	only := fs.String("only", "", "run one study: bic, dim, markers, inline, primary, warming, early")
	workers := fs.Int("workers", 0, "intra-benchmark worker pool size (0 = GOMAXPROCS, 1 = serial; never changes the numbers)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg := xbsim.QuickExperimentConfig()
	cfg.Benchmarks = strings.Split(*benchList, ",")
	cfg.Workers = *workers

	studies := []struct {
		key string
		run func() (*experiment.AblationTable, error)
	}{
		{"bic", func() (*experiment.AblationTable, error) {
			return experiment.AblationBICThreshold(ctx, cfg, []float64{0.7, 0.9, 1.0})
		}},
		{"dim", func() (*experiment.AblationTable, error) {
			return experiment.AblationProjectionDim(ctx, cfg, []int{4, 15, 64})
		}},
		{"markers", func() (*experiment.AblationTable, error) {
			return experiment.AblationMarkerGranularity(ctx, cfg)
		}},
		{"inline", func() (*experiment.AblationTable, error) {
			return experiment.AblationInlineHeuristic(ctx, cfg)
		}},
		{"primary", func() (*experiment.AblationTable, error) {
			return experiment.AblationPrimaryBinary(ctx, cfg)
		}},
		{"warming", func() (*experiment.AblationTable, error) {
			return experiment.AblationWarming(ctx, cfg)
		}},
		{"early", func() (*experiment.AblationTable, error) {
			return experiment.AblationEarlyPoints(ctx, cfg, []float64{0, 0.25, 1.0})
		}},
	}
	ran := false
	for _, s := range studies {
		if *only != "" && s.key != *only {
			continue
		}
		ran = true
		tab, err := s.run()
		if err != nil {
			return err
		}
		if err := report.Ablation(w, tab); err != nil {
			return err
		}
	}
	if !ran {
		return usagef("unknown ablation %q", *only)
	}
	return nil
}

// cmdVerify checks every cross-binary invariant on one named benchmark.
func cmdVerify(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("verify")
	bench := fs.String("bench", "", "benchmark name")
	ops, interval, seed := commonFlags(fs)
	sampler, samplerBudget := samplerFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := buildBenchmark(*bench, *ops)
	if err != nil {
		return err
	}
	pr := invariant.CheckBenchmark(ctx, b, xbsim.Input{Name: "ref", Seed: *seed},
		invariant.Config{IntervalSize: *interval, Sampler: *sampler, SamplerBudget: *samplerBudget})
	if pr.Err != "" {
		return fmt.Errorf("%s: %s", pr.Name, pr.Err)
	}
	for _, c := range pr.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %s %-28s %s\n", status, c.Name, c.Detail)
	}
	if !pr.OK() {
		return fmt.Errorf("%s: cross-binary invariants violated", pr.Name)
	}
	fmt.Fprintf(w, "%s: all cross-binary invariants hold\n", pr.Name)
	return nil
}

// cmdSelfcheck runs the metamorphic self-check harness: randomized
// programs from a seeded distribution, every paper-level invariant
// checked on each.
func cmdSelfcheck(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("selfcheck")
	n := fs.Int("n", 10, "number of randomized programs to check")
	seed := fs.Uint64("seed", 1, "spec distribution seed (same seed = same programs)")
	workers := fs.Int("workers", 0, "harness worker pool size (0 = GOMAXPROCS, 1 = serial; never changes the report)")
	ops := fs.Uint64("ops", 0, "override every program's operation count (0 = keep each spec's own scale)")
	interval := fs.Uint64("interval", 0, "VLI minimum size in instructions (0 = 8000)")
	cpiBound := fs.Float64("cpi-bound", 0, "cpi-sanity relative error bound (0 = 2.0, a loose sanity net)")
	listPrograms := fs.Bool("programs", false, "also list every checked program with its outcome")
	sampler, samplerBudget := samplerFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *n <= 0 {
		return usagef("-n must be positive")
	}
	rep, err := invariant.Run(ctx, invariant.Config{
		Programs: *n, Seed: *seed, Workers: *workers,
		TargetOps: *ops, IntervalSize: *interval, CPIBound: *cpiBound,
		Sampler: *sampler, SamplerBudget: *samplerBudget,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "selfcheck: %d randomized programs, seed %d\n", *n, *seed)
	for _, tl := range rep.Tallies() {
		status := "ok  "
		if tl.Fail > 0 {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  %s %-20s %d/%d programs", status, tl.Name, tl.Pass, tl.Pass+tl.Fail)
		if tl.FirstFailure != "" {
			fmt.Fprintf(w, "  first: %s", tl.FirstFailure)
		}
		fmt.Fprintln(w)
	}
	if *listPrograms {
		for _, pr := range rep.Programs {
			status := "ok  "
			if !pr.OK() {
				status = "FAIL"
			}
			fmt.Fprintf(w, "  %s [%3d] %s (ops %d, behaviors %d, segments %d)\n",
				status, pr.Index, pr.Name, pr.Spec.TargetOps, pr.Spec.Behaviors, pr.Spec.Segments)
		}
	}
	if !rep.OK() {
		return fmt.Errorf("selfcheck: invariants violated")
	}
	fmt.Fprintf(w, "all invariants hold across %d programs\n", *n)
	return nil
}

// cmdPhases prints a phase timeline (the classic SimPoint strip).
func cmdPhases(ctx context.Context, args []string, w io.Writer) error {
	fs := newFlagSet("phases")
	bench := fs.String("bench", "", "benchmark name")
	target := fs.String("target", "32u", "binary configuration (fli flavor)")
	flavor := fs.String("flavor", "vli", "fli or vli")
	width := fs.Int("width", 72, "strip width in characters")
	ops, interval, seed := commonFlags(fs)
	workers := workersFlag(fs)
	sampler, samplerBudget := samplerFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	b, err := buildBenchmark(*bench, *ops)
	if err != nil {
		return err
	}
	bi := 0
	switch *flavor {
	case "fli":
		if bi, err = pickBinary(*target); err != nil {
			return err
		}
	case "vli":
	default:
		return usagef("unknown flavor %q", *flavor)
	}
	a, err := xbsim.Analyze(ctx, b.Binaries, xbsim.ExperimentConfig{IntervalSize: *interval,
		Input:   xbsim.Input{Name: "ref", Seed: *seed},
		Workers: *workers, Sampler: *sampler, SamplerBudget: *samplerBudget})
	if err != nil {
		return err
	}
	// The vli strip is the shared one: every binary labels the same
	// intervals alike.
	var phaseOf []int
	if *flavor == "fli" {
		ps, err := a.PerBinaryPoints(ctx, bi)
		if err != nil {
			return err
		}
		phaseOf = ps.PhaseOf
	} else {
		cross, err := a.CrossBinaryPoints(ctx)
		if err != nil {
			return err
		}
		phaseOf = cross.PhaseOf()
	}
	fmt.Fprintf(w, "%s (%s):\n", *bench, *flavor)
	return report.PhaseTimeline(w, phaseOf, *width)
}
