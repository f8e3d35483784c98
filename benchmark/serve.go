package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xbsim/internal/experiment"
	"xbsim/internal/jobqueue"
	"xbsim/internal/program"
	"xbsim/internal/serve"
)

// Traffic shape of serve-mixed.
const (
	// arrivalRate is the mean submission rate in jobs per second: half
	// of the 60-70 jobs/s that -sweep found to meet the latency limit
	// below in a quiet spell of the host (README.md records the sweeps;
	// in a slow spell the figure fell to 30-40). At half the knee,
	// queueing adds little to a cold job's latency, so a queue does not
	// amplify the host's speed swings.
	arrivalRate = 30.0
	// freshShare of the submissions carry a spec never submitted before;
	// the rest resubmit an earlier one. No recorded traffic of the
	// service exists; a third is an assumption that gives both the cold
	// path and the cache path hundreds of samples a run.
	freshShare = 1.0 / 3
	// coldP95LimitMS is the latency limit: a cold job's 95th percentile,
	// from its due time to its result in hand. maxBacklogGrowth is how
	// many more submissions may be in flight at the end of a run than at
	// its start before the backlog counts as growing.
	coldP95LimitMS, maxBacklogGrowth = 250, 1
	// pollInterval is how long a client waits between result polls.
	pollInterval = 5 * time.Millisecond
	// checkSpecs is how many served specs are re-run in-process after
	// the timed phase to check the served fingerprints.
	checkSpecs = 8
	// hitProbes is how many cache-hit submissions the serve probe of a
	// batch workload makes after its one cold job.
	hitProbes = 20
	// submissionGroup numbers the trace lanes of serve-mixed's
	// submissions, above the replay's per-program lanes; probeGroup is
	// the lane of a batch workload's serve probe.
	submissionGroup = 100_000
	probeGroup      = 99_999
	// leadIn separates the end of set-up from the first arrival.
	leadIn = 20 * time.Millisecond
	// jobTimeout bounds one submission from send to result.
	jobTimeout = 90 * time.Second
)

// arrival is one scheduled submission.
type arrival struct {
	// At is the send time, from the start of the timed phase.
	At time.Duration
	// Spec indexes the fresh-spec stream: the submission carries
	// program.RandomSpec(seed, Spec).
	Spec int
	// Fresh marks the first submission of its spec.
	Fresh bool
}

// schedule draws serve-mixed's arrivals for a timed phase of length d:
// rate*d submissions at Poisson arrival times (uniform order statistics
// on [0, d), which is a Poisson process given its count), exactly a
// freshShare of them fresh with the first one fresh, and every other
// one resubmitting a uniformly chosen earlier spec. It also picks the
// specs to re-run for the output check. The same seed gives the same
// schedule.
func schedule(seed uint64, d time.Duration, rate float64) (sched []arrival, check []int) {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	n := int(rate*d.Seconds() + 0.5)
	if n < 1 {
		n = 1
	}
	sched = make([]arrival, n)
	for i := range sched {
		sched[i].At = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(sched, func(i, k int) bool { return sched[i].At < sched[k].At })

	fresh := int(float64(n)*freshShare + 0.5)
	if fresh < 1 {
		fresh = 1
	}
	kinds := make([]bool, n)
	for i := 0; i < fresh; i++ {
		kinds[i] = true
	}
	rng.Shuffle(n-1, func(i, k int) { kinds[i+1], kinds[k+1] = kinds[k+1], kinds[i+1] })
	seen := 0
	for i := range sched {
		if kinds[i] {
			sched[i].Spec, sched[i].Fresh = seen, true
			seen++
		} else {
			sched[i].Spec = rng.IntN(seen)
		}
	}
	check = rng.Perm(fresh)
	if len(check) > checkSpecs {
		check = check[:checkSpecs]
	}
	sort.Ints(check)
	return sched, check
}

// outcome is what one submission's client saw.
type outcome struct {
	arrival
	Err          error
	JobID        string
	Cached       bool
	Fingerprint  string
	Result       []byte // the served result, kept for fresh submissions
	Latency      time.Duration
	Late         time.Duration // dispatch time past the scheduled time
	Post, Get    time.Duration // the submission and the final result fetch
	Polls        int           // result fetches answered 409
	queued, runs time.Duration // from the job record
	epoch        int           // the timed run's epoch it was sent in
	inFlight     int64         // submissions in flight when it was sent, itself included
}

func (o *outcome) cold() bool      { return o.Err == nil && o.Fresh && !o.Cached }
func (o *outcome) hit() bool       { return o.Err == nil && o.Cached }
func (o *outcome) coalesced() bool { return o.Err == nil && !o.Fresh && !o.Cached }

// service is an in-process analysis service and an HTTP client limited
// to two connections, as a small client pool would be.
type service struct {
	dir    string
	srv    *serve.Server
	base   string
	client *http.Client
}

// startService starts a service on a fresh spool under workdir and
// waits until /readyz answers 200.
func startService(ctx context.Context, workdir string) (*service, error) {
	dir, err := os.MkdirTemp(workdir, "spool-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.Start(ctx, serve.Options{
		Addr: "127.0.0.1:0", Spool: dir,
		Concurrency: parallelism, Workers: workers, MaxPending: 1000,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{dir: dir, srv: srv, base: "http://" + srv.Addr(), client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}}
	for {
		status, _, _, err := s.do(ctx, http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			return s, nil
		}
		if ctx.Err() != nil {
			s.close()
			return nil, fmt.Errorf("service never became ready: %w", ctx.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the service and removes its spool.
func (s *service) close() error {
	s.client.CloseIdleConnections()
	err := s.srv.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func (s *service) do(ctx context.Context, method, path string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// submit sends one job and fetches its result, polling while the job
// runs. Latency runs from due, the scheduled send time, so a late
// dispatch counts against the service like any other wait.
func (s *service) submit(ctx context.Context, group int, body []byte, due time.Time, spans *spanLog) (o outcome) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	root, end := spans.open(group, 0, "submission")
	defer end()
	defer func() { o.Latency = time.Since(due) }()
	// timed makes one request and records it as a span named by how it
	// was answered.
	timed := func(method, path string, body []byte, name func(status int) string) (int, []byte, http.Header, time.Duration, error) {
		t := time.Now()
		status, data, hdr, err := s.do(ctx, method, path, body)
		end := time.Now()
		spans.add(span{Parent: root, Group: group, Name: name(status), Start: t, End: end})
		return status, data, hdr, end.Sub(t), err
	}
	resultName := func(status int) string {
		if status == http.StatusConflict {
			return "serve.poll"
		}
		return "serve.result_get"
	}

	status, data, _, d, err := timed(http.MethodPost, "/jobs", body, func(int) string { return "serve.post" })
	o.Post = d
	if err == nil && status != http.StatusOK && status != http.StatusAccepted {
		err = fmt.Errorf("submit answered %d: %s", status, bytes.TrimSpace(data))
	}
	var sub serve.SubmitResponse
	if err == nil {
		err = json.Unmarshal(data, &sub)
	}
	if err != nil {
		o.Err = err
		return o
	}
	o.JobID, o.Cached = sub.Job.ID, sub.Cached
	for {
		status, data, hdr, d, err := timed(http.MethodGet, sub.ResultURL, nil, resultName)
		switch {
		case err != nil:
			o.Err = err
			return o
		case status == http.StatusOK:
			o.Get, o.Result = d, data
			if o.Fingerprint = hdr.Get("X-Suite-Fingerprint"); o.Fingerprint == "" {
				o.Err = fmt.Errorf("job %s: result carries no fingerprint", o.JobID)
			}
			return o
		case status != http.StatusConflict:
			o.Err = fmt.Errorf("job %s: result answered %d: %s", o.JobID, status, bytes.TrimSpace(data))
			return o
		}
		o.Polls++
		select {
		case <-ctx.Done():
			o.Err = fmt.Errorf("job %s: %w", o.JobID, ctx.Err())
			return o
		case <-time.After(pollInterval):
		}
	}
}

// jobTimes reads each distinct job's record once and stamps every
// outcome with its job's queue wait and run time.
func (s *service) jobTimes(ctx context.Context, outs []outcome) error {
	type times struct{ queued, runs time.Duration }
	seen := map[string]times{}
	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			continue
		}
		t, ok := seen[o.JobID]
		if !ok {
			status, data, _, err := s.do(ctx, http.MethodGet, "/jobs/"+o.JobID, nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("answered %d", status)
			}
			var job jobqueue.Job
			if err == nil {
				err = json.Unmarshal(data, &job)
			}
			if err != nil {
				return fmt.Errorf("job record %s: %w", o.JobID, err)
			}
			t = times{job.Started.Sub(job.Submitted), job.Finished.Sub(job.Started)}
			seen[o.JobID] = t
		}
		o.queued, o.runs = t.queued, t.runs
	}
	return nil
}

// serveRunner drives serve-mixed: open-loop Poisson arrivals against an
// in-process service, a third of them fresh program specs.
type serveRunner struct {
	opts childOptions
	cfg  experiment.Config
	svc  *service
}

func newServeRunner(ctx context.Context, opts childOptions) (*serveRunner, error) {
	svc, err := startService(ctx, opts.Workdir)
	if err != nil {
		return nil, err
	}
	cfg := serveConfig()
	cfg.Workers, cfg.Parallelism = workers, parallelism
	return &serveRunner{opts: opts, cfg: cfg, svc: svc}, nil
}

func (s *serveRunner) close() error { return s.svc.close() }

// spec is the i-th fresh spec: a seeded random program scaled to the
// job configuration's operation count, so that job sizes, and with them
// the latencies, do not swing with the seed.
func (s *serveRunner) spec(i int) program.Spec {
	spec := program.RandomSpec(s.opts.Seed, i)
	spec.TargetOps = s.cfg.TargetOps
	return spec.Normalize()
}

func (s *serveRunner) measure(ctx context.Context, d time.Duration, ref *reference, r *result) {
	s.run(ctx, d, ref, nil, r)
}

// layers runs the same traffic, epochs and all, with spans on, then
// runs the checked specs directly and replayed layer by layer (see
// layerPass), and the spool and journal microbenchmarks.
func (s *serveRunner) layers(ctx context.Context, d time.Duration, ref *reference, spans *spanLog, r *result) {
	served, checked := s.run(ctx, d, ref, spans, r)
	serial := s.cfg
	serial.Workers, serial.Parallelism = 1, 1
	items := make([]replayItem, len(checked))
	for i, k := range checked {
		spec := s.spec(k)
		items[i] = replayItem{
			name: spec.Name(),
			gen:  func() (*program.Program, error) { return program.GenerateSpec(spec) },
			direct: func(ctx context.Context) (*experiment.Suite, error) {
				return experiment.RunSpecsCtx(ctx, []program.Spec{spec}, serial)
			},
		}
	}
	if suite := layerPass(ctx, serial, items, d, spans, r); suite != nil {
		accuracy(suite, "experiment.", r)
	}
	microbench(s.opts, served, spans, r)
}

// run is the timed phase: it replays the schedule, checks the outputs
// and publishes the metrics. A timed run (ref set) cuts the schedule
// into epochs of serveEpoch: at the end of each it waits for every
// submission in flight, times a reference slice on the idle service,
// and resumes the schedule where it stopped, so the schedule's clock
// stands still while the reference runs. Each cold job's latency is
// normalised by the mean of the slices on either side of its epoch. It
// returns one served result (the payload for the spool
// microbenchmarks) and the spec indices it re-ran.
func (s *serveRunner) run(ctx context.Context, d time.Duration, ref *reference, spans *spanLog, r *result) ([]byte, []int) {
	sched, check := schedule(s.opts.Seed, d, s.opts.Rate)
	bodies := make([][]byte, len(sched))
	for i, a := range sched {
		body, err := json.Marshal(serve.SubmitRequest{Request: jobqueue.Request{
			Specs: []program.Spec{s.spec(a.Spec)}, Config: s.cfg}})
		if err != nil {
			r.invalid("encoding submission %d: %v", i, err)
			return nil, nil
		}
		bodies[i] = body
	}

	var slices []time.Duration // slices[e] before epoch e, slices[e+1] after it
	if ref != nil {
		slices = append(slices, ref.slice())
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	outs := make([]outcome, len(sched))
	var wg sync.WaitGroup
	var inFlight atomic.Int64
	t0 := time.Now().Add(leadIn)
	epochEnd := serveEpoch
	for i, a := range sched {
		if ref != nil && a.At >= epochEnd {
			wg.Wait()
			slices = append(slices, ref.slice())
			t0 = time.Now().Add(-epochEnd)
			for a.At >= epochEnd {
				epochEnd += serveEpoch
			}
		}
		due := t0.Add(a.At)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		epoch, n := len(slices)-1, inFlight.Add(1)
		wg.Add(1)
		go func(i int, a arrival, due time.Time, late time.Duration) {
			defer wg.Done()
			defer inFlight.Add(-1)
			spans.name(submissionGroup+i, fmt.Sprintf("submission %d (spec %d)", i, a.Spec))
			o := s.svc.submit(ctx, submissionGroup+i, bodies[i], due, spans)
			o.arrival, o.Late, o.epoch, o.inFlight = a, late, epoch, n
			if !a.Fresh {
				o.Result = nil
			}
			outs[i] = o
		}(i, a, due, late)
	}
	wg.Wait()
	runtime.ReadMemStats(&m1)
	if ref != nil {
		slices = append(slices, ref.slice())
	}

	if err := s.svc.jobTimes(ctx, outs); err != nil {
		r.invalid("%v", err)
	}
	served := s.check(ctx, outs, check, r)

	var cold, norm, coldMIPS, late []float64
	var nCold int
	for i := range outs {
		o := &outs[i]
		late = append(late, ms(o.Late))
		if !o.cold() {
			continue
		}
		nCold++
		cold = append(cold, ms(o.Latency))
		if ref != nil {
			norm = append(norm, normalised(o.Latency, (slices[o.epoch]+slices[o.epoch+1])/2))
		}
		var export experiment.SuiteExport
		if err := json.Unmarshal(o.Result, &export); err != nil {
			r.failOp("submission of spec %d: decoding the result: %v", o.Spec, err)
			continue
		}
		var instr uint64
		for _, b := range export.Benchmarks {
			for _, run := range b.Runs {
				instr += run.Instructions
			}
		}
		if o.runs > 0 {
			coldMIPS = append(coldMIPS, float64(instr)/o.runs.Seconds()/1e6)
		}
	}
	r.set("latency_p50_ms", sampled("ms", cold))
	r.set("norm_latency_ms", sampled("ms", norm))
	r.set("cold_p95_ms", tailOf("ms", cold, 0.95))
	r.set("backlog_growth", backlogGrowth(outs))
	r.set("minstr_per_s", sampled("Minstr/s", coldMIPS))
	if nCold > 0 {
		r.set("alloc_mb", single("MB", mb(m1.TotalAlloc-m0.TotalAlloc)/float64(nCold)))
	}
	var hits []float64
	for i := range outs {
		if outs[i].hit() {
			hits = append(hits, ms(outs[i].Latency))
		}
	}
	r.set("hit_p50_ms", sampled("ms", hits))
	r.set("loadgen.late_ms_p95", tailOf("ms", late, 0.95))
	r.set("loadgen.late_ms_max", single("ms", sortedCopy(late)[len(late)-1]))
	serveLayerMetrics(outs, r)
	return served, check
}

// check applies serve-mixed's output checks: every submission of one
// spec must be served the same fingerprint, and the checked specs,
// re-run in-process, must produce the fingerprints that were served.
// It returns one served result.
func (s *serveRunner) check(ctx context.Context, outs []outcome, check []int, r *result) []byte {
	var payload []byte
	served := map[int]string{}
	for i := range outs {
		o := &outs[i]
		r.Attempted++
		if o.Err != nil {
			r.failOp("submission %d (spec %d): %v", i, o.Spec, o.Err)
			continue
		}
		if payload == nil {
			payload = o.Result
		}
		if fp, ok := served[o.Spec]; !ok {
			served[o.Spec] = o.Fingerprint
		} else if fp != o.Fingerprint {
			r.failOp("submission %d: spec %d served fingerprint %s, earlier %s", i, o.Spec, o.Fingerprint, fp)
		}
	}

	specs := make([]program.Spec, len(check))
	for i, k := range check {
		specs[i] = s.spec(k)
	}
	suite, err := experiment.RunSpecsCtx(ctx, specs, s.cfg)
	for i, k := range check {
		r.Attempted++
		switch {
		case err != nil:
			r.failOp("re-running spec %d: %v", k, err)
		case served[k] == "":
			r.failOp("spec %d was never served", k)
		default:
			one := &experiment.Suite{Results: suite.Results[i : i+1]}
			if fp := one.Fingerprint(); fp != served[k] {
				r.failOp("spec %d: served fingerprint %s, in-process run %s", k, served[k], fp)
			}
		}
	}
	return payload
}

// backlogGrowth is how many more submissions were in flight, on
// average, when one was sent in the last third of the timed phase than
// in the first: near zero while the service keeps up, and growing with
// the phase's length once arrivals outpace it.
func backlogGrowth(outs []outcome) metric {
	var first, last []float64
	end := outs[len(outs)-1].At
	for i := range outs {
		switch o := &outs[i]; {
		case o.At < end/3:
			first = append(first, float64(o.inFlight))
		case o.At >= 2*end/3:
			last = append(last, float64(o.inFlight))
		}
	}
	return single("count", mean(last)-mean(first))
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runSweep runs serve-mixed once at each rate of list, each in a fresh
// child, and prints cold-job latency against coldP95LimitMS and the
// highest rate that meets the limit without a growing backlog.
func runSweep(list string, opts childOptions, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "xbbench: %v\n", err)
		return 1
	}
	opts.Workload = "serve-mixed"
	fmt.Fprintf(stdout, "serve-mixed, seed %d; limit: cold p95 <= %d ms, backlog growth <= %d submissions\n",
		opts.Seed, coldP95LimitMS, maxBacklogGrowth)
	fmt.Fprintf(stdout, "%8s %8s %6s %10s %10s %10s %10s %10s  %s\n",
		"jobs/s", "seconds", "cold", "cold_p50", "cold_p95", "hit_p50", "backlog+", "late_p95", "meets")
	best := 0.0
	for _, field := range strings.Split(list, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil || rate <= 0 {
			fmt.Fprintf(stderr, "xbbench: bad rate %q\n", field)
			return 2
		}
		// A slow rate runs long enough for the 95th percentile to have
		// minBeyond cold jobs beyond it.
		run := opts
		run.Rate = rate
		if need := int(math.Ceil(minBeyond / 0.05 / (rate * freshShare))); need > run.Seconds {
			run.Seconds = need
		}
		_, r, _, err := spawn(exe, "sweep", run, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "xbbench: %g jobs/s: %v\n", rate, err)
			return 1
		}
		m := r.Metrics
		p95, growth := m["cold_p95_ms"], m["backlog_growth"]
		meets := r.Failed == 0 && !p95.Invalid && p95.Value <= coldP95LimitMS && growth.Value <= maxBacklogGrowth
		if meets && rate > best {
			best = rate
		}
		p95s := fmt.Sprintf("%.1f", p95.Value)
		if p95.Invalid {
			p95s = "invalid"
		}
		fmt.Fprintf(stdout, "%8g %8d %6d %10.1f %10s %10.1f %10.2f %10.1f  %v\n", rate, run.Seconds, m["latency_p50_ms"].N,
			m["latency_p50_ms"].Value, p95s, m["hit_p50_ms"].Value, growth.Value, m["loadgen.late_ms_p95"].Value, meets)
		for _, p := range r.Problems {
			fmt.Fprintf(stdout, "         problem: %s\n", p)
		}
	}
	fmt.Fprintf(stdout, "highest rate meeting the limit: %g jobs/s\n", best)
	return 0
}

// serveLayerMetrics publishes the service's per-layer numbers from what
// the clients saw and the job records.
func serveLayerMetrics(outs []outcome, r *result) {
	var postCold, postHit, get, queued, runs []float64
	var polls, nCold, hits, coalesced int
	seen := map[string]bool{}
	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			continue
		}
		get = append(get, ms(o.Get))
		switch {
		case o.cold():
			nCold++
			polls += o.Polls
			postCold = append(postCold, ms(o.Post))
		case o.hit():
			hits++
			postHit = append(postHit, ms(o.Post))
		case o.coalesced():
			coalesced++
		}
		if !seen[o.JobID] && o.runs > 0 {
			seen[o.JobID] = true
			queued = append(queued, ms(o.queued))
			runs = append(runs, ms(o.runs))
		}
	}
	r.set("serve.post_cold_ms", sampled("ms", postCold))
	r.set("serve.post_hit_ms", sampled("ms", postHit))
	r.set("serve.result_get_ms", sampled("ms", get))
	if nCold > 0 {
		r.set("serve.polls_per_job", single("count", float64(polls)/float64(nCold)))
	}
	r.set("jobqueue.queue_wait_ms_p50", sampled("ms", queued))
	r.set("jobqueue.queue_wait_ms_p95", tailOf("ms", queued, 0.95))
	r.set("jobqueue.run_ms_p50", sampled("ms", runs))
	r.set("jobqueue.run_ms_p95", tailOf("ms", runs, 0.95))
	if n := len(outs); n > 0 {
		r.set("jobqueue.cache_hit_frac", single("fraction", float64(hits)/float64(n)))
		r.set("jobqueue.coalesced_frac", single("fraction", float64(coalesced)/float64(n)))
	}
}

// serveProbe serves cfg's benchmarks as one job on a fresh service: one
// cold submission, then hitProbes cache hits. The served fingerprint
// must equal want, the direct run's.
func serveProbe(ctx context.Context, opts childOptions, cfg experiment.Config, want string, spans *spanLog, r *result) {
	svc, err := startService(ctx, opts.Workdir)
	if err != nil {
		r.invalid("starting the service: %v", err)
		return
	}
	defer func() {
		if err := svc.close(); err != nil {
			r.invalid("closing the service: %v", err)
		}
	}()
	body, err := json.Marshal(serve.SubmitRequest{Request: jobqueue.Request{Benchmarks: cfg.Benchmarks, Config: cfg}})
	if err != nil {
		r.invalid("encoding the probe job: %v", err)
		return
	}
	outs := make([]outcome, 1+hitProbes)
	spans.name(probeGroup, "serve probe")
	for i := range outs {
		outs[i] = svc.submit(ctx, probeGroup, body, time.Now(), spans)
		outs[i].Fresh = i == 0
	}
	if err := svc.jobTimes(ctx, outs); err != nil {
		r.invalid("%v", err)
	}
	for i := range outs {
		r.Attempted++
		switch o := &outs[i]; {
		case o.Err != nil:
			r.failOp("probe submission %d: %v", i, o.Err)
		case o.Fingerprint != want:
			r.failOp("probe submission %d: served fingerprint %s, direct run %s", i, o.Fingerprint, want)
		}
	}
	serveLayerMetrics(outs, r)
}
