package invariant

import (
	"context"
	"testing"

	"xbsim"
	"xbsim/internal/exec"
	"xbsim/internal/program"
)

// fuzzSpec decodes arbitrary fuzz bytes into a canonical spec with the
// operation count wrapped into a fast range, so each fuzz execution
// stays well under a second while still varying scale.
func fuzzSpec(data []byte) program.Spec {
	s := program.SpecFromBytes(data)
	s.TargetOps = 60_000 + s.TargetOps%120_001
	return s.Normalize()
}

func fuzzInput(s program.Spec) xbsim.Input {
	return xbsim.Input{Name: "selfcheck", Seed: 0x5EED ^ s.Variant}
}

// fuzzConfig is the fuzz targets' analysis configuration: 8000-
// instruction intervals, at most 6 phases, serial.
func fuzzConfig(s program.Spec) xbsim.ExperimentConfig {
	return xbsim.ExperimentConfig{IntervalSize: 8000, MaxK: 6, Workers: 1, Input: fuzzInput(s)}
}

// fuzzMapping analyzes the binaries under fuzzConfig and returns the
// mapping.
func fuzzMapping(t *testing.T, s program.Spec, bins []*xbsim.Binary) *xbsim.MappingResult {
	t.Helper()
	a, err := xbsim.Analyze(context.Background(), bins, fuzzConfig(s))
	if err != nil {
		t.Fatalf("spec %s: analysis: %v", s.Name(), err)
	}
	return a.Mapping
}

// FuzzMapping feeds arbitrary spec encodings through program synthesis,
// compilation, and mappable-point discovery, then checks the §3.2
// guarantees: every mappable point fires exactly its recorded count in
// every binary, and the point set (per binary) is bit-identical when
// the non-primary binaries are permuted.
func FuzzMapping(f *testing.F) {
	for i := 0; i < 6; i++ {
		f.Add(program.RandomSpec(1, i).Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSpec(data)
		bench, err := xbsim.NewBenchmarkFromSpec(s)
		if err != nil {
			t.Fatalf("spec %+v: %v", s, err)
		}
		in := fuzzInput(s)
		mapped := fuzzMapping(t, s, bench.Binaries)
		for bi, bin := range bench.Binaries {
			mc := exec.NewMarkerCounter(bin)
			if err := exec.RunCtx(context.Background(), bin, in, mc); err != nil {
				t.Fatal(err)
			}
			for _, pt := range mapped.Points {
				if got := mc.Counts[pt.Markers[bi]]; got != pt.Count {
					t.Fatalf("spec %s: point %q fired %d times in %s, recorded %d",
						s.Name(), pt.Name, got, bin.Name, pt.Count)
				}
			}
		}

		// Permute the non-primary binaries; per-binary views must agree.
		perm := []*xbsim.Binary{bench.Binaries[0]}
		for i := len(bench.Binaries) - 1; i >= 1; i-- {
			perm = append(perm, bench.Binaries[i])
		}
		mapped2 := fuzzMapping(t, s, perm)
		if len(mapped2.Points) != len(mapped.Points) {
			t.Fatalf("spec %s: %d points under permuted order, baseline %d",
				s.Name(), len(mapped2.Points), len(mapped.Points))
		}
		for b2, bin := range perm {
			b := 0
			for i, orig := range bench.Binaries {
				if orig == bin {
					b = i
					break
				}
			}
			if got, want := mapped2.FingerprintFor(b2), mapped.FingerprintFor(b); got != want {
				t.Fatalf("spec %s: %s mapping fingerprint %s under permuted order, baseline %s",
					s.Name(), bin.Name, got, want)
			}
		}
	})
}

// FuzzStratifiedSampler runs the full cross-binary pipeline under the
// stratified sampler backend on arbitrary spec encodings, with the
// point budget derived from the spec, and checks the invariants the
// backend must uphold: boundary translation, weight distribution, and
// rerun determinism (bit-identical fingerprint for the same inputs).
func FuzzStratifiedSampler(f *testing.F) {
	for i := 0; i < 6; i++ {
		f.Add(program.RandomSpec(3, i).Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSpec(data)
		bench, err := xbsim.NewBenchmarkFromSpec(s)
		if err != nil {
			t.Fatalf("spec %+v: %v", s, err)
		}
		cfg := fuzzConfig(s)
		cfg.Sampler, cfg.SamplerBudget = "stratified", 1+int(s.Variant%9)
		ctx := context.Background()
		a, err := xbsim.Analyze(ctx, bench.Binaries, cfg)
		if err != nil {
			t.Fatalf("spec %s: analysis: %v", s.Name(), err)
		}
		cp, sets, _, err := measure(ctx, a, cfg.Input)
		if err != nil {
			t.Fatalf("spec %s: stratified pipeline: %v", s.Name(), err)
		}
		for _, c := range []Check{checkBoundaryTranslate(cp), checkWeightSum(cp, sets)} {
			if !c.OK {
				t.Fatalf("spec %s: %s: %s", s.Name(), c.Name, c.Detail)
			}
		}
		cp2, err := crossPoints(ctx, bench.Binaries, cfg)
		if err != nil {
			t.Fatalf("spec %s: rerun: %v", s.Name(), err)
		}
		if got, want := cp2.Fingerprint(), cp.Fingerprint(); got != want {
			t.Fatalf("spec %s: rerun fingerprint %s, first run %s", s.Name(), got, want)
		}
	})
}

// FuzzCrossBinaryPoints runs the full cross-binary pipeline on
// arbitrary spec encodings and checks the marker-count, symbol-count,
// boundary-translation, interval-coverage and weight-distribution
// invariants on the result.
func FuzzCrossBinaryPoints(f *testing.F) {
	for i := 0; i < 6; i++ {
		f.Add(program.RandomSpec(2, i).Encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzSpec(data)
		bench, err := xbsim.NewBenchmarkFromSpec(s)
		if err != nil {
			t.Fatalf("spec %+v: %v", s, err)
		}
		ctx := context.Background()
		a, err := xbsim.Analyze(ctx, bench.Binaries, fuzzConfig(s))
		if err != nil {
			t.Fatalf("spec %s: analysis: %v", s.Name(), err)
		}
		cp, sets, _, err := measure(ctx, a, fuzzInput(s))
		if err != nil {
			t.Fatalf("spec %s: pipeline: %v", s.Name(), err)
		}
		for _, c := range []Check{
			checkMarkerCounts(a.Profiles, cp),
			checkSymbolCounts(a.Profiles),
			checkBoundaryTranslate(cp),
			checkIntervalCoverage(cp, sets, a.Profiles, 8000),
			checkWeightSum(cp, sets),
		} {
			if !c.OK {
				t.Fatalf("spec %s: %s: %s", s.Name(), c.Name, c.Detail)
			}
		}
	})
}
