package telemetry

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"xbsim/internal/obs"
)

// /attribution must serve the live cost-attribution snapshot as JSON.
func TestServerAttributionEndpoint(t *testing.T) {
	s, o := startTestServer(t)
	o.Attrib = obs.NewAttribution()
	o.Attrib.StartWalk("gcc", "gcc.32u", "full").Done(1000, 1500)
	o.Attrib.AddPoint("gcc", "gcc.32u", "fli", 4, 120, 180)

	resp, body := get(t, "http://"+s.Addr()+"/attribution")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var snap obs.AttribSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(snap.Nodes) != 2 {
		t.Fatalf("nodes = %d, want 2\n%s", len(snap.Nodes), body)
	}
	if snap.Nodes[0].Walk != "fli" || snap.Nodes[0].Point != 4 ||
		snap.Nodes[0].Value.Instructions != 120 {
		t.Errorf("point node = %+v", snap.Nodes[0])
	}
	// The walk-3 accounting lives in the pipeline.memo counters only.
	if strings.Contains(body, "redundancy") {
		t.Errorf("attribution JSON still carries a redundancy field:\n%s", body)
	}
}

// /attribution without a profiler (or observer) serves an empty
// snapshot with the same shape, never an error.
func TestServerAttributionEndpointEmpty(t *testing.T) {
	s, _ := startTestServer(t) // observer without Attrib
	_, body := get(t, "http://"+s.Addr()+"/attribution")
	var snap struct {
		Nodes []obs.AttribNode `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if snap.Nodes == nil || len(snap.Nodes) != 0 {
		t.Errorf("empty attribution nodes = %v, want []", snap.Nodes)
	}

	nilSrv, err := Start("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer nilSrv.Close()
	if resp, _ := get(t, "http://"+nilSrv.Addr()+"/attribution"); resp.StatusCode != http.StatusOK {
		t.Errorf("nil observer /attribution status %d", resp.StatusCode)
	}
}

// /profile must serve a structurally valid speedscope document built
// from the attribution tree.
func TestServerProfileEndpoint(t *testing.T) {
	s, o := startTestServer(t)
	o.Attrib = obs.NewAttribution()
	o.Attrib.StartWalk("apsi", "apsi.64o", "vli").Done(500, 900)
	o.Attrib.AddPoint("apsi", "apsi.64o", "vli", 2, 300, 500)

	resp, body := get(t, "http://"+s.Addr()+"/profile")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := obs.ValidateSpeedscope([]byte(body)); err != nil {
		t.Fatalf("/profile serves invalid speedscope: %v\n%s", err, body)
	}
	if !strings.Contains(body, "apsi.64o") || !strings.Contains(body, "walk:vli") {
		t.Errorf("flamegraph missing expected frames:\n%s", body)
	}

	// Without attribution it still serves a valid (empty) document.
	empty, err := Start("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	_, body = get(t, "http://"+empty.Addr()+"/profile")
	if err := obs.ValidateSpeedscope([]byte(body)); err != nil {
		t.Errorf("empty /profile invalid: %v", err)
	}
}

// The index page must list the new endpoints.
func TestIndexListsAttributionEndpoints(t *testing.T) {
	s, _ := startTestServer(t)
	_, body := get(t, "http://"+s.Addr()+"/")
	for _, want := range []string{"/attribution", "/profile"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q:\n%s", want, body)
		}
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
