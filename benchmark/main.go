// Command xbbench is xbsim's benchmark. It runs named workloads against
// the pipeline and the analysis service from the outside, through their
// public functions, checks every output, and prints each end-to-end
// metric by name with its unit; a traced run prints the per-layer
// metrics instead. Run it from the repository root:
//
//	bash benchmark/run.sh                        # every workload, run_seconds each
//	bash benchmark/run.sh -workload fine-simpoint -seconds 10
//	bash benchmark/run.sh -trace 1               # per-layer metrics and span files
//	bash benchmark/run.sh -compare a.json b.json # results written with -o
//	bash benchmark/run.sh -sweep 10,30,60        # serve-mixed latency by arrival rate
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md explains the
// workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many extra processes only set a workload up, so
// setup_s is a median rather than one process start.
const setupRuns = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if role := os.Getenv(childEnv); role != "" {
		return childMain(role, args, stdout, stderr)
	}
	fs := flag.NewFlagSet("xbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.String("workload", "all", "workloads to run, comma-separated, in order; all runs every one")
	seed := fs.Uint64("seed", 0x5EED, "seed for the workloads' inputs")
	seconds := fs.Int("seconds", 0, "timed seconds per workload; 0 uses the definition's run_seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed one")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition: metrics, units and bounds")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for spools and span files")
	out := fs.String("o", "", "also write the results, with quartiles and sample counts, to this file")
	compare := fs.Bool("compare", false, "compare two sides, each a comma-separated list of files written with -o, under the definition's bounds")
	record := fs.String("record", "", "run each listed batch workload once at -seed and record its suite fingerprint in this file")
	sweep := fs.String("sweep", "", "run serve-mixed at each of these comma-separated arrival rates (jobs/s) and find the highest that meets the cold-job latency limit")
	smoke := fs.Bool("smoke", false, "tiny inputs, for the smoke test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "xbbench: %v\n", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "xbbench: -compare takes two sides: a1.json[,a2.json...] b1.json[,b2.json...]")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	ws, err := findWorkloads(*list)
	if err != nil {
		fmt.Fprintf(stderr, "xbbench: %v\n", err)
		return 2
	}
	if *record != "" {
		return recordExpected(*record, ws, *seed, stderr)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "xbbench: %v\n", err)
		return 1
	}
	base := childOptions{Seed: *seed, Seconds: *seconds, Smoke: *smoke, Workdir: *workdir, Rate: arrivalRate}
	if *sweep != "" {
		return runSweep(*sweep, base, stdout, stderr)
	}
	declared := spec.EndToEnd
	if *trace == 1 {
		declared = spec.PerLayer
	}

	var results []*result
	for _, w := range ws {
		opts := base
		opts.Workload, opts.Trace = w.Name, *trace == 1
		r := runWorkload(opts, stderr)
		for _, m := range declared {
			got, ok := r.Metrics[m.Name]
			switch {
			case !ok:
				r.invalid("declared metric %s was not measured", m.Name)
			case got.Unit != m.Unit:
				r.invalid("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
			}
		}
		r.Correct = r.Failed == 0 && len(r.Problems) == 0
		printResult(stdout, r, declared)
		if opts.Trace && r.Correct {
			fmt.Fprintf(stdout, "   spans: %s\n", opts.traceOut())
		}
		results = append(results, r)
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fmt.Fprintf(stderr, "xbbench: %v\n", err)
			return 1
		}
	}
	line, correct := summaryLine(results, declared)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload's set-up children and its measuring
// child, and adds the two metrics only the parent can see: set-up time
// and the measuring child's peak resident memory. Set-up times are
// normalised, like the latencies, by reference slices timed before and
// after the set-up children.
func runWorkload(opts childOptions, stderr io.Writer) *result {
	r := &result{Workload: opts.Workload, Seed: opts.Seed, Trace: opts.Trace, Metrics: map[string]metric{}}
	exe, err := os.Executable()
	if err != nil {
		r.invalid("locating the benchmark binary: %v", err)
		return r
	}
	ref, err := newReference()
	if err != nil {
		r.invalid("%v", err)
		return r
	}
	before := ref.slices(1)
	var setups []time.Duration
	for i := 0; i < setupRuns; i++ {
		ready, _, _, err := spawn(exe, "setup", opts, stderr)
		if err != nil {
			r.invalid("set-up process %d: %v", i, err)
			ref.close()
			return r
		}
		setups = append(setups, ready)
	}
	speed := (before + ref.slices(1)) / 2
	if err := ref.close(); err != nil {
		r.invalid("unmapping the reference tables: %v", err)
		return r
	}
	ready, child, rssMB, err := spawn(exe, "run", opts, stderr)
	if err != nil {
		r.invalid("measuring process: %v", err)
		return r
	}
	r = child
	var raw, norm []float64
	for _, s := range append(setups, ready) {
		raw = append(raw, s.Seconds())
		norm = append(norm, normalised(s, speed)/1e3)
	}
	r.set("setup_s", sampled("s", norm))
	r.set("setup_wall_s", sampled("s", raw))
	r.set("peak_rss_mb", single("MB", rssMB-r.ReferenceMB))
	return r
}

// spawn runs the benchmark binary as a child in the given role and
// returns how long it took to report ready, its result (every role but
// "setup" prints one), and its peak resident memory in MB.
func spawn(exe, role string, opts childOptions, stderr io.Writer) (time.Duration, *result, float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline+5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, opts.args()...)
	cmd.Env = append(os.Environ(), childEnv+"="+role)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, 0, err
	}
	var ready time.Duration
	var res *result
	var decodeErr error
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		switch line := sc.Bytes(); {
		case string(line) == readyLine:
			ready = time.Since(start)
		case len(line) > 0 && line[0] == '{':
			res = &result{}
			decodeErr = json.Unmarshal(line, res)
		default:
			fmt.Fprintf(stderr, "%s\n", line)
		}
	}
	if err := cmd.Wait(); err != nil {
		return 0, nil, 0, fmt.Errorf("%s child: %w", role, err)
	}
	switch {
	case sc.Err() != nil:
		return 0, nil, 0, sc.Err()
	case ready == 0:
		return 0, nil, 0, fmt.Errorf("%s child never reported ready", role)
	case decodeErr != nil:
		return 0, nil, 0, fmt.Errorf("decoding the child's result: %w", decodeErr)
	case role != "setup" && res == nil:
		return 0, nil, 0, fmt.Errorf("the child printed no result")
	}
	var rssMB float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return ready, res, rssMB, nil
}

// printResult prints one workload's checks and metrics as a table: the
// declared metrics first, in declaration order, then the rest by name.
func printResult(w io.Writer, r *result, declared []metricSpec) {
	mode := "timed"
	if r.Trace {
		mode = "traced"
	}
	verdict := "yes"
	if !r.Correct {
		verdict = "NO"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  correct: %s  attempted %d  failed %d\n",
		r.Workload, r.Seed, mode, verdict, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	var names []string
	seen := map[string]bool{}
	for _, m := range declared {
		if _, ok := r.Metrics[m.Name]; ok {
			names = append(names, m.Name)
			seen[m.Name] = true
		}
	}
	var rest []string
	for name := range r.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	fmt.Fprintf(w, "   %-30s %-9s %14s %14s %14s %6s\n", "metric", "unit", "median", "q1", "q3", "n")
	for i, name := range append(names, rest...) {
		if i == len(names) && len(names) > 0 && len(rest) > 0 {
			fmt.Fprintln(w, "   --")
		}
		m := r.Metrics[name]
		if m.Invalid {
			fmt.Fprintf(w, "   %-30s %-9s %14s %14s %14s %6d\n", name, m.Unit, "invalid", "", "", m.N)
			continue
		}
		fmt.Fprintf(w, "   %-30s %-9s %14.6g %14.6g %14.6g %6d\n", name, m.Unit, m.Value, m.Q1, m.Q3, m.N)
	}
}

// summaryLine is the machine-read last line: the declared metrics of
// one workload, or of several keyed "workload/metric".
func summaryLine(results []*result, declared []metricSpec) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	sum := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for _, d := range declared {
			m, ok := r.Metrics[d.Name]
			if !ok || m.Invalid {
				continue
			}
			key := d.Name
			if len(results) > 1 {
				key = r.Workload + "/" + d.Name
			}
			sum.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`,
			sum.Attempted, sum.Failed), false
	}
	return string(line), sum.Correct
}

// resultsFile is what -o writes and -compare reads.
type resultsFile struct {
	Results []*result `json:"results"`
}

func writeResults(path string, results []*result) error {
	data, err := json.MarshalIndent(resultsFile{results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// metricSpec is one metric of the benchmark definition.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles applies the definition's bounds to two sides, each a
// comma-separated list of result files written with -o: a row per
// workload and end-to-end metric, marked better, same, worse, or
// unresolved when either side's run-to-run spread (the quartile spread
// over its files' values) is wider than the bound. A side of one file
// falls back to that run's own sample quartiles. It exits non-zero
// when anything is worse.
func compareFiles(spec *benchSpec, listA, listB string, stdout, stderr io.Writer) int {
	var sides [2]side
	var order []string
	for i, list := range []string{listA, listB} {
		s, names, err := loadSide(list)
		if err != nil {
			fmt.Fprintf(stderr, "xbbench: %v\n", err)
			return 1
		}
		sides[i] = s
		if i == 0 {
			order = names
		}
	}
	counts := map[string]int{}
	fmt.Fprintf(stdout, "%-16s %-16s %-9s %14s %14s %8s %7s  %s\n",
		"workload", "metric", "unit", "a", "b", "change", "bound", "verdict")
	for _, w := range order {
		for _, ms := range spec.EndToEnd {
			ma, okA := sides[0].summary(w, ms.Name)
			mb, okB := sides[1].summary(w, ms.Name)
			if !okA || !okB {
				continue
			}
			b := bound(ma, ms)
			v, change := verdict(ma, mb, b, ms.Better)
			counts[v]++
			fmt.Fprintf(stdout, "%-16s %-16s %-9s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n",
				w, ms.Name, ms.Unit, ma.Value, mb.Value, 100*change, 100*b, v)
		}
	}
	fmt.Fprintf(stdout, "better %d  same %d  worse %d  unresolved %d\n",
		counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}

// side is one side of a comparison: every run of each workload, in the
// order the files were given.
type side map[string][]*result

// loadSide reads a comma-separated list of result files and returns
// their runs with the workloads in first-seen order.
func loadSide(list string) (side, []string, error) {
	s := side{}
	var order []string
	for _, path := range strings.Split(list, ",") {
		var f resultsFile
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &f)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Results {
			if _, ok := s[r.Workload]; !ok {
				order = append(order, r.Workload)
			}
			s[r.Workload] = append(s[r.Workload], r)
		}
	}
	return s, order, nil
}

// summary is a side's value of one metric: the median over its runs
// with their quartiles, or a lone run's own summary.
func (s side) summary(workload, name string) (metric, bool) {
	runs := s[workload]
	if len(runs) == 1 {
		m, ok := runs[0].Metrics[name]
		return m, ok
	}
	var xs []float64
	var unit string
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
			unit = m.Unit
		}
	}
	if len(xs) == 0 {
		return metric{}, false
	}
	return sampled(unit, xs), true
}

// floors are absolute amounts, in a metric's unit, that its bound never
// falls below. BENCHMARK.json states bounds as shares and has no field
// for them. A process start of about 2 ms moves by a third from run to
// run, while the set-up work worth flagging is tens of milliseconds.
var floors = map[string]float64{"setup_s": 0.05}

// bound is the share of a by which a metric may move: the declared
// bound, or the floor as a share of a when that is wider.
func bound(a metric, ms metricSpec) float64 {
	return math.Max(ms.Bound, floors[ms.Name]/math.Abs(a.Value))
}

// verdict compares b against a under bound. change is b's relative
// change, positive when b is worse.
func verdict(a, b metric, bound float64, better string) (string, float64) {
	change := (b.Value - a.Value) / a.Value
	if better == "higher" {
		change = -change
	}
	switch {
	case a.spread() > bound || b.spread() > bound:
		return "unresolved", change
	case change > bound:
		return "worse", change
	case change < -bound:
		return "better", change
	}
	return "same", change
}
