package experiment

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// sameFloats compares float slices bit for bit, so NaN slots (phases
// without a simulation point) compare equal between identical runs
// where reflect.DeepEqual would report a spurious mismatch.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameMethodStats is a NaN-tolerant deep equality over MethodStats.
func sameMethodStats(t *testing.T, label string, a, b MethodStats) {
	t.Helper()
	if a.K != b.K || a.NumPoints != b.NumPoints || a.NumIntervals != b.NumIntervals {
		t.Errorf("%s: shape differs: K %d/%d points %d/%d intervals %d/%d",
			label, a.K, b.K, a.NumPoints, b.NumPoints, a.NumIntervals, b.NumIntervals)
	}
	if math.Float64bits(a.AvgIntervalInstrs) != math.Float64bits(b.AvgIntervalInstrs) ||
		math.Float64bits(a.EstCPI) != math.Float64bits(b.EstCPI) ||
		math.Float64bits(a.CPIError) != math.Float64bits(b.CPIError) ||
		math.Float64bits(a.EstCycles) != math.Float64bits(b.EstCycles) {
		t.Errorf("%s: scalars differ: EstCPI %v/%v CPIError %v/%v",
			label, a.EstCPI, b.EstCPI, a.CPIError, b.CPIError)
	}
	if !sameFloats(a.PhaseWeights, b.PhaseWeights) {
		t.Errorf("%s: PhaseWeights differ:\n%v\n%v", label, a.PhaseWeights, b.PhaseWeights)
	}
	if !sameFloats(a.PhaseTrueCPI, b.PhaseTrueCPI) {
		t.Errorf("%s: PhaseTrueCPI differ:\n%v\n%v", label, a.PhaseTrueCPI, b.PhaseTrueCPI)
	}
	if !sameFloats(a.PointCPI, b.PointCPI) {
		t.Errorf("%s: PointCPI differ:\n%v\n%v", label, a.PointCPI, b.PointCPI)
	}
	if !reflect.DeepEqual(a.PointInterval, b.PointInterval) {
		t.Errorf("%s: PointInterval differ:\n%v\n%v", label, a.PointInterval, b.PointInterval)
	}
	if !reflect.DeepEqual(a.PhaseOf, b.PhaseOf) {
		t.Errorf("%s: PhaseOf differ", label)
	}
}

// TestWorkersDeterminism pins the parallelism contract: a Workers=1
// (fully serial) suite and a Workers=8 suite produce bit-identical
// results — same seeds, same clusterings, same estimates, deep-equal
// MethodStats for every binary of every benchmark. Run under -race in
// CI, this also shakes out data races in the fan-out.
func TestWorkersDeterminism(t *testing.T) {
	serialCfg := testConfig("gzip", "art")
	serialCfg.Workers = 1
	parallelCfg := testConfig("gzip", "art")
	parallelCfg.Workers = 8

	serial, err := RunCtx(context.Background(), serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCtx(context.Background(), parallelCfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial.Results) != len(parallel.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(serial.Results), len(parallel.Results))
	}
	for i, sr := range serial.Results {
		pr := parallel.Results[i]
		if sr.Name != pr.Name || sr.Primary != pr.Primary {
			t.Fatalf("benchmark %d identity differs: %s/%d vs %s/%d",
				i, sr.Name, sr.Primary, pr.Name, pr.Primary)
		}
		if len(sr.Runs) != len(pr.Runs) {
			t.Fatalf("%s: run counts differ", sr.Name)
		}
		if len(sr.Mapping.Points) != len(pr.Mapping.Points) {
			t.Fatalf("%s: mappable point counts differ", sr.Name)
		}
		for bi, srun := range sr.Runs {
			prun := pr.Runs[bi]
			label := sr.Name + "/" + srun.Binary.Name
			if srun.TotalInstructions != prun.TotalInstructions ||
				srun.TrueCycles != prun.TrueCycles ||
				math.Float64bits(srun.TrueCPI) != math.Float64bits(prun.TrueCPI) {
				t.Errorf("%s: totals differ: %d/%d cycles %d/%d", label,
					srun.TotalInstructions, prun.TotalInstructions,
					srun.TrueCycles, prun.TrueCycles)
			}
			sameMethodStats(t, label+"/FLI", srun.FLI, prun.FLI)
			sameMethodStats(t, label+"/VLI", srun.VLI, prun.VLI)
		}
	}
}

// A one-benchmark suite, where the benchmark alone uses the pool, must
// match the serial path too.
func TestWorkersDeterminismSingleBenchmark(t *testing.T) {
	cfg1 := testConfig("swim")
	cfg1.Workers = 1
	cfgN := testConfig("swim")
	cfgN.Workers = 6

	serial, err := runBenchmark(context.Background(), "swim", cfg1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runBenchmark(context.Background(), "swim", cfgN)
	if err != nil {
		t.Fatal(err)
	}
	for bi := range serial.Runs {
		label := "swim/" + serial.Runs[bi].Binary.Name
		sameMethodStats(t, label+"/FLI", serial.Runs[bi].FLI, parallel.Runs[bi].FLI)
		sameMethodStats(t, label+"/VLI", serial.Runs[bi].VLI, parallel.Runs[bi].VLI)
	}
}
