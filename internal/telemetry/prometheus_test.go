package telemetry

import (
	"strings"
	"testing"

	"xbsim/internal/obs"
)

// The exposition format is a stable interface scraped by external
// tooling, so it is pinned byte-for-byte: sanitized xbsim_ names,
// _total counters, cumulative le buckets at power-of-two edges with a
// le="0" zeros bucket and +Inf, sorted within each kind.
func TestWritePrometheusGolden(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("pipeline.benchmarks_failed").Add(3)
	r.Counter("blocks.total").Add(128)
	r.Gauge("simpoint.chosen_k").Set(4)
	h := r.Histogram("stage.mapping.duration_us")
	for _, v := range []uint64{0, 1, 3, 100} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE xbsim_blocks_total_total counter
xbsim_blocks_total_total 128
# TYPE xbsim_pipeline_benchmarks_failed_total counter
xbsim_pipeline_benchmarks_failed_total 3
# TYPE xbsim_simpoint_chosen_k gauge
xbsim_simpoint_chosen_k 4
# TYPE xbsim_stage_mapping_duration_us histogram
xbsim_stage_mapping_duration_us_bucket{le="0"} 1
xbsim_stage_mapping_duration_us_bucket{le="1"} 2
xbsim_stage_mapping_duration_us_bucket{le="3"} 3
xbsim_stage_mapping_duration_us_bucket{le="127"} 4
xbsim_stage_mapping_duration_us_bucket{le="+Inf"} 4
xbsim_stage_mapping_duration_us_sum 104
xbsim_stage_mapping_duration_us_count 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// Labeled metrics (obs.LabeledName) render as one series per label set
// under a single # TYPE line per family, with label-value escaping done
// at construction surviving verbatim — pinned byte-for-byte like the
// plain golden above.
func TestWritePrometheusLabeledGolden(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter(obs.LabeledName("serve.tenant.submissions", "tenant", "acme")).Add(2)
	r.Counter(obs.LabeledName("serve.tenant.submissions", "tenant", "beta")).Add(5)
	r.Counter(obs.LabeledName("serve.tenant.submissions", "tenant", `ev"il\ten`)).Inc()
	r.Counter("serve.jobs.completed").Add(7)
	r.Gauge(obs.LabeledName("serve.queue.depth", "state", "pending")).Set(3)
	h := r.Histogram(obs.LabeledName("serve.run_ms", "tenant", "acme"))
	for _, v := range []uint64{0, 2, 900} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE xbsim_serve_jobs_completed_total counter
xbsim_serve_jobs_completed_total 7
# TYPE xbsim_serve_tenant_submissions_total counter
xbsim_serve_tenant_submissions_total{tenant="acme"} 2
xbsim_serve_tenant_submissions_total{tenant="beta"} 5
xbsim_serve_tenant_submissions_total{tenant="ev\"il\\ten"} 1
# TYPE xbsim_serve_queue_depth gauge
xbsim_serve_queue_depth{state="pending"} 3
# TYPE xbsim_serve_run_ms histogram
xbsim_serve_run_ms_bucket{tenant="acme",le="0"} 1
xbsim_serve_run_ms_bucket{tenant="acme",le="3"} 2
xbsim_serve_run_ms_bucket{tenant="acme",le="1023"} 3
xbsim_serve_run_ms_bucket{tenant="acme",le="+Inf"} 3
xbsim_serve_run_ms_sum{tenant="acme"} 902
xbsim_serve_run_ms_count{tenant="acme"} 3
`
	if got := b.String(); got != want {
		t.Errorf("labeled exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// One TYPE line per family even with three labeled variants.
	if n := strings.Count(b.String(), "# TYPE xbsim_serve_tenant_submissions_total"); n != 1 {
		t.Errorf("%d TYPE lines for the labeled counter family, want 1", n)
	}
}

// Rendering the same snapshot twice must produce identical bytes —
// the determinism contract behind the golden test above.
func TestWritePrometheusDeterministic(t *testing.T) {
	r := obs.NewRegistry()
	for _, name := range []string{"z.last", "a.first", "m.middle"} {
		r.Counter(name).Inc()
		r.Gauge("g." + name).Set(1)
		r.Histogram("h." + name).Observe(7)
	}
	snap := r.Snapshot()
	var a, b strings.Builder
	if err := WritePrometheus(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two renders of one snapshot differ")
	}
	if !strings.Contains(a.String(), "xbsim_a_first_total") {
		t.Errorf("missing sanitized counter in:\n%s", a.String())
	}
}

func TestPromNameSanitizes(t *testing.T) {
	for in, want := range map[string]string{
		"pool.queue_wait_us":  "xbsim_pool_queue_wait_us",
		"stage.vli.alloc":     "xbsim_stage_vli_alloc",
		"weird-name with:sep": "xbsim_weird_name_with:sep",
		"faults_injected.a.b": "xbsim_faults_injected_a_b",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// bucketBound must match the histogram's bucket semantics: bucket 0 is
// zeros, bucket i holds [2^(i-1), 2^i).
func TestBucketBound(t *testing.T) {
	for i, want := range map[int]uint64{
		0: 0, 1: 1, 2: 3, 3: 7, 10: 1023, 63: 1<<63 - 1,
	} {
		if got := bucketBound(i); got != want {
			t.Errorf("bucketBound(%d) = %d, want %d", i, got, want)
		}
	}
	if got := bucketBound(64); got != ^uint64(0) {
		t.Errorf("bucketBound(64) = %d, want MaxUint64", got)
	}
}

// The per-walk simulation counter families are scraped by external
// tooling, so their exposition is pinned byte-for-byte like the rest of
// the format: one golden covering the sim.full/sim.fli/sim.vli
// instruction counters and the per-level cache event counters.
func TestWritePrometheusSimFamiliesGolden(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("sim.full.instructions").Add(1_000_000)
	r.Counter("sim.fli.instructions").Add(250_000)
	r.Counter("sim.vli.instructions").Add(240_000)
	r.Counter("sim.full.cache.l1.evictions").Add(400)
	r.Counter("sim.full.cache.l1.writebacks").Add(150)
	r.Counter("sim.full.cache.l1.prefetch_fills").Add(0)
	r.Counter("sim.full.cache.l1.prefetch_evictions").Add(0)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE xbsim_sim_fli_instructions_total counter
xbsim_sim_fli_instructions_total 250000
# TYPE xbsim_sim_full_cache_l1_evictions_total counter
xbsim_sim_full_cache_l1_evictions_total 400
# TYPE xbsim_sim_full_cache_l1_prefetch_evictions_total counter
xbsim_sim_full_cache_l1_prefetch_evictions_total 0
# TYPE xbsim_sim_full_cache_l1_prefetch_fills_total counter
xbsim_sim_full_cache_l1_prefetch_fills_total 0
# TYPE xbsim_sim_full_cache_l1_writebacks_total counter
xbsim_sim_full_cache_l1_writebacks_total 150
# TYPE xbsim_sim_full_instructions_total counter
xbsim_sim_full_instructions_total 1000000
# TYPE xbsim_sim_vli_instructions_total counter
xbsim_sim_vli_instructions_total 240000
`
	if got := b.String(); got != want {
		t.Errorf("sim family exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
