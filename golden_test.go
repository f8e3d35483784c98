package xbsim

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden simulation-point files")

// goldenPoints pins one clustering outcome: the chosen k, the
// representative interval per phase, every interval's phase label, and
// the bit-exact analysis fingerprint.
type goldenPoints struct {
	K              int    `json:"k"`
	NumIntervals   int    `json:"num_intervals"`
	PointIntervals []int  `json:"point_intervals"`
	PhaseOf        []int  `json:"phase_of"`
	Fingerprint    string `json:"fingerprint"`
}

// goldenFile is one benchmark's pinned simulation points: the
// cross-binary (VLI) selection with its per-binary point-set
// fingerprints, and the classic per-binary (FLI) selection on 32u.
type goldenFile struct {
	Benchmark          string            `json:"benchmark"`
	VLI                goldenPoints      `json:"vli"`
	BinaryFingerprints map[string]string `json:"binary_fingerprints"`
	FLI32u             goldenPoints      `json:"fli_32u"`
}

// TestGoldenSimulationPoints regresses the chosen simulation points for
// the seed benchmarks against testdata/golden. Any change to the
// pipeline that moves a simulation point, relabels a phase, or perturbs
// a weight bit shows up as a diff here. Refresh intentionally with:
//
//	go test -run TestGoldenSimulationPoints -update .
func TestGoldenSimulationPoints(t *testing.T) {
	goldenPointsTest(t, testConfig(), "")
}

// TestGoldenStratifiedPoints pins the stratified backend's picks the
// same way: the pipeline is shared, only point selection differs, so a
// drifted stratum boundary, budget allocation, or per-segment draw
// shows up as a diff against testdata/golden/stratified-<name>.json.
func TestGoldenStratifiedPoints(t *testing.T) {
	cfg := testConfig()
	cfg.Sampler = "stratified"
	goldenPointsTest(t, cfg, "stratified-")
}

// goldenPointsTest regresses the chosen simulation points for the seed
// benchmarks under one sampler configuration against
// testdata/golden/<prefix><name>.json.
func goldenPointsTest(t *testing.T, cfg ExperimentConfig, prefix string) {
	ctx := context.Background()
	for _, name := range []string{"gcc", "apsi", "applu", "mcf", "swim"} {
		t.Run(name, func(t *testing.T) {
			b := testBenchmark(t, name)
			a := testAnalysis(t, b, cfg)
			cross, err := a.CrossBinaryPoints(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenFile{
				Benchmark: name,
				VLI: goldenPoints{
					K:              cross.K(),
					NumIntervals:   cross.NumIntervals(),
					PointIntervals: cross.PointIntervals(),
					PhaseOf:        cross.PhaseOf(),
					Fingerprint:    cross.Fingerprint(),
				},
				BinaryFingerprints: map[string]string{},
			}
			for bi, bin := range b.Binaries {
				ps, err := cross.ForBinary(ctx, bi)
				if err != nil {
					t.Fatal(err)
				}
				got.BinaryFingerprints[bin.Name] = ps.Fingerprint()
			}
			fli, err := a.PerBinaryPoints(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			got.FLI32u = goldenPoints{
				K:              len(fli.Weights),
				NumIntervals:   len(fli.PhaseOf),
				PointIntervals: fli.PointInterval,
				PhaseOf:        fli.PhaseOf,
				Fingerprint:    fli.Fingerprint(),
			}

			path := filepath.Join("testdata", "golden", prefix+name+".json")
			if *updateGolden {
				data, err := json.MarshalIndent(&got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			var want goldenFile
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				gotJSON, _ := json.MarshalIndent(&got, "", "  ")
				t.Errorf("simulation points drifted from %s;\nre-run with -update if intentional\ngot:\n%s",
					path, gotJSON)
			}
		})
	}
}
