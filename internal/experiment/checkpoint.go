package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"xbsim/internal/atomicfile"
	"xbsim/internal/compiler"
	"xbsim/internal/fingerprint"
	"xbsim/internal/mapping"
	"xbsim/internal/sampler"
)

// Checkpoint/resume: RunCtx persists each completed benchmark's result
// as a small JSON file in Config.CheckpointDir so a killed suite can be
// rerun and skip the benchmarks it already finished. A checkpoint is
// trusted only when three things validate: the format version, the
// fingerprint of the configuration it was produced under, and the
// fingerprint of the payload itself (recomputed on load, so a corrupt
// or hand-edited file is detected and the benchmark recomputed).
//
// The payload is the reportable projection of a BenchmarkResult — names,
// totals, and the two MethodStats per binary — which is everything the
// report, figure, and export layers consume. Heavyweight fields that are
// only needed while the pipeline is in flight (the compiled program
// behind each Binary, the mapping's marker tables) are reduced to the
// parts downstream readers use: the binary name and the mappable point
// count.

// checkpointVersion gates the file format; bump on incompatible change.
// v2: MethodStats gained SimulatedInstructions, which participates in the
// payload fingerprint — a v1 file would reload with the field zeroed and
// fingerprint differently than a fresh run.
const checkpointVersion = 2

// errNoCheckpoint reports an absent (not invalid) checkpoint.
var errNoCheckpoint = errors.New("no checkpoint")

// nanFloats is a float slice whose JSON form renders NaN as null —
// encoding/json rejects NaN, and MethodStats.PointCPI uses NaN for
// phases without a simulation point.
type nanFloats []float64

func (f nanFloats) MarshalJSON() ([]byte, error) {
	ptrs := make([]*float64, len(f))
	for i := range f {
		if f[i] == f[i] {
			v := f[i]
			ptrs[i] = &v
		}
	}
	return json.Marshal(ptrs)
}

func (f *nanFloats) UnmarshalJSON(b []byte) error {
	var ptrs []*float64
	if err := json.Unmarshal(b, &ptrs); err != nil {
		return err
	}
	out := make(nanFloats, len(ptrs))
	for i, p := range ptrs {
		if p == nil {
			out[i] = math.NaN()
		} else {
			out[i] = *p
		}
	}
	*f = out
	return nil
}

// methodCkpt mirrors MethodStats field-for-field with NaN-safe floats.
type methodCkpt struct {
	K                 int       `json:"k"`
	NumPoints         int       `json:"numPoints"`
	NumIntervals      int       `json:"numIntervals"`
	AvgIntervalInstrs float64   `json:"avgIntervalInstrs"`
	PhaseWeights      []float64 `json:"phaseWeights"`
	PhaseTrueCPI      nanFloats `json:"phaseTrueCPI"`
	PointCPI          nanFloats `json:"pointCPI"`
	PointInterval     []int     `json:"pointInterval"`
	PhaseOf           []int     `json:"phaseOf"`
	EstCPI            float64   `json:"estCPI"`
	CPIError          float64   `json:"cpiError"`
	EstCycles         float64   `json:"estCycles"`
	SimulatedInstrs   uint64    `json:"simulatedInstructions"`
}

func methodToCkpt(ms *MethodStats) methodCkpt {
	return methodCkpt{
		K:                 ms.K,
		NumPoints:         ms.NumPoints,
		NumIntervals:      ms.NumIntervals,
		AvgIntervalInstrs: ms.AvgIntervalInstrs,
		PhaseWeights:      ms.PhaseWeights,
		PhaseTrueCPI:      nanFloats(ms.PhaseTrueCPI),
		PointCPI:          nanFloats(ms.PointCPI),
		PointInterval:     ms.PointInterval,
		PhaseOf:           ms.PhaseOf,
		EstCPI:            ms.EstCPI,
		CPIError:          ms.CPIError,
		EstCycles:         ms.EstCycles,
		SimulatedInstrs:   ms.SimulatedInstructions,
	}
}

func (m *methodCkpt) toStats() MethodStats {
	return MethodStats{
		K:                     m.K,
		NumPoints:             m.NumPoints,
		NumIntervals:          m.NumIntervals,
		AvgIntervalInstrs:     m.AvgIntervalInstrs,
		PhaseWeights:          m.PhaseWeights,
		PhaseTrueCPI:          []float64(m.PhaseTrueCPI),
		PointCPI:              []float64(m.PointCPI),
		PointInterval:         m.PointInterval,
		PhaseOf:               m.PhaseOf,
		EstCPI:                m.EstCPI,
		CPIError:              m.CPIError,
		EstCycles:             m.EstCycles,
		SimulatedInstructions: m.SimulatedInstrs,
	}
}

// runCkpt is one binary's checkpointed results.
type runCkpt struct {
	Binary            string     `json:"binary"`
	TotalInstructions uint64     `json:"totalInstructions"`
	TrueCycles        uint64     `json:"trueCycles"`
	TrueCPI           float64    `json:"trueCPI"`
	FLI               methodCkpt `json:"fli"`
	VLI               methodCkpt `json:"vli"`
}

// benchmarkCkpt is a BenchmarkResult reduced to its reportable fields.
type benchmarkCkpt struct {
	Name           string    `json:"name"`
	Primary        int       `json:"primary"`
	MappablePoints int       `json:"mappablePoints"`
	Runs           []runCkpt `json:"runs"`
}

// checkpointFile is the on-disk format.
type checkpointFile struct {
	Version     int           `json:"version"`
	ConfigFP    string        `json:"configFingerprint"`
	Benchmark   benchmarkCkpt `json:"benchmark"`
	Fingerprint string        `json:"fingerprint"`
}

// fingerprint digests the result-affecting configuration. A checkpoint
// written under a different interval size, seed, hierarchy, etc. must
// not satisfy a resume — numbers would silently come from the wrong
// experiment. Two kinds of knobs are deliberately excluded: wall-clock
// ones (Parallelism, Workers, CheckpointDir, SharedPool), which never
// change results, and the benchmark list itself — each
// benchmark's result is independent of which others ran, so a resume
// with a larger list still reuses the checkpoints it has.
func (c Config) fingerprint() string {
	h := fingerprint.New()
	h.Uint64(c.TargetOps)
	h.Uint64(c.IntervalSize)
	h.Int(c.MaxK)
	h.Int(c.Dim)
	h.Float64(c.BICThreshold)
	h.Int(c.Restarts)
	h.String(c.Seed)
	h.String(c.Input.Name)
	h.Uint64(uint64(c.Input.Seed))
	h.String(fmt.Sprintf("%+v", c.Hierarchy))
	h.String(fmt.Sprintf("%+v", c.Mapping))
	h.Int(c.Primary)
	// 0 keeps the default's digest as it always was; 1 was the retired
	// stale-cache warming-off model, so none of its checkpoints
	// validates under the cold-start one.
	if c.coldStart {
		h.Int(2)
	} else {
		h.Int(0)
	}
	h.Float64(c.EarlyTolerance)
	// Sampler knobs join the digest only off the default backend: the
	// default path's fingerprints stay a pure function of the original
	// knobs, and SamplerBudget/SamplerStrata — meaningless under SimPoint
	// — can never invalidate a SimPoint checkpoint.
	if c.Sampler != "" && c.Sampler != sampler.BackendSimPoint {
		h.String("sampler=" + c.Sampler)
		h.Int(c.SamplerBudget)
		h.Int(c.SamplerStrata)
	}
	return h.Sum()
}

// Fingerprint is the exported form of the configuration digest: defaults
// are applied first, so two Configs that resolve to the same effective
// experiment digest identically regardless of which knobs were spelled
// out. This is the value checkpoint scopes and serve's content-addressed
// job identities are keyed by. It fails only when the configuration
// itself is invalid (bad Primary index or unknown sampler backend).
func (c Config) Fingerprint() (string, error) {
	c, err := c.withDefaults()
	if err != nil {
		return "", err
	}
	return c.fingerprint(), nil
}

func hashMethod(h *fingerprint.Hasher, ms *MethodStats) {
	h.Int(ms.K)
	h.Int(ms.NumPoints)
	h.Int(ms.NumIntervals)
	h.Float64(ms.AvgIntervalInstrs)
	h.Float64s(ms.PhaseWeights)
	h.Float64s(ms.PhaseTrueCPI)
	h.Float64s(ms.PointCPI)
	h.Ints(ms.PointInterval)
	h.Ints(ms.PhaseOf)
	h.Float64(ms.EstCPI)
	h.Float64(ms.CPIError)
	h.Float64(ms.EstCycles)
	h.Uint64(ms.SimulatedInstructions)
}

// Fingerprint digests the result's reportable fields — exactly the set
// the checkpoint payload round-trips, so a freshly computed result and
// its reload from a checkpoint fingerprint identically. Floats are
// hashed by IEEE-754 bit pattern: "close" never passes for "equal".
func (r *BenchmarkResult) Fingerprint() string {
	h := fingerprint.New()
	h.String(r.Name)
	h.Int(r.Primary)
	h.Int(len(r.Mapping.Points))
	h.Int(len(r.Runs))
	for _, run := range r.Runs {
		h.String(run.Binary.Name)
		h.Uint64(run.TotalInstructions)
		h.Uint64(run.TrueCycles)
		h.Float64(run.TrueCPI)
		hashMethod(h, &run.FLI)
		hashMethod(h, &run.VLI)
	}
	return h.Sum()
}

// Fingerprint digests the whole suite: the completed results in order
// plus the names of any failures. Two suite runs are treated as
// bit-identical exactly when their digests match; the crash-recovery
// tests compare resumed runs to uninterrupted ones this way.
func (s *Suite) Fingerprint() string {
	h := fingerprint.New()
	h.Int(len(s.Results))
	for _, r := range s.Results {
		h.String(r.Fingerprint())
	}
	h.Int(len(s.Failures))
	for _, f := range s.Failures {
		h.String(f.Name)
	}
	return h.Sum()
}

// checkpointScope names the configuration's subdirectory inside a
// checkpoint dir. Scoping checkpoints per config fingerprint is what
// makes a CheckpointDir safe to share between concurrent suites: two
// suites running under different configurations write into disjoint
// subdirectories, so neither can overwrite (and thereby invalidate) the
// other's checkpoint for the same benchmark; two suites under the same
// configuration write byte-identical payloads through atomic renames,
// which commute. Before this, a shared dir was a ping-pong: each suite's
// save replaced the other's file with one that fails the other's config
// validation, silently destroying resumability for both.
func checkpointScope(dir, cfgFP string) string {
	return filepath.Join(dir, "cfg-"+cfgFP)
}

// checkpointPath names the benchmark's checkpoint file inside its
// config scope. Benchmark and spec names are `[a-z0-9-]+`, so they are
// safe as file names.
func checkpointPath(dir, cfgFP, name string) string {
	return filepath.Join(checkpointScope(dir, cfgFP), name+".ckpt.json")
}

// saveCheckpoint atomically persists one completed benchmark, so a crash
// mid-write leaves either the old checkpoint or none — never a torn file
// that parses.
func saveCheckpoint(dir string, r *BenchmarkResult, cfgFP string) error {
	scope := checkpointScope(dir, cfgFP)
	if err := os.MkdirAll(scope, 0o755); err != nil {
		return err
	}
	ck := checkpointFile{
		Version:  checkpointVersion,
		ConfigFP: cfgFP,
		Benchmark: benchmarkCkpt{
			Name:           r.Name,
			Primary:        r.Primary,
			MappablePoints: len(r.Mapping.Points),
		},
		Fingerprint: r.Fingerprint(),
	}
	for _, run := range r.Runs {
		ck.Benchmark.Runs = append(ck.Benchmark.Runs, runCkpt{
			Binary:            run.Binary.Name,
			TotalInstructions: run.TotalInstructions,
			TrueCycles:        run.TrueCycles,
			TrueCPI:           run.TrueCPI,
			FLI:               methodToCkpt(&run.FLI),
			VLI:               methodToCkpt(&run.VLI),
		})
	}
	data, err := json.MarshalIndent(&ck, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.Write(checkpointPath(dir, cfgFP, r.Name), append(data, '\n'))
}

// loadCheckpoint loads and validates the benchmark's checkpoint,
// reconstructing a BenchmarkResult that reports identically to the one
// that was saved. It returns errNoCheckpoint when no file exists, and a
// descriptive error when a file exists but fails validation (version or
// config mismatch, unparseable JSON, or a payload whose recomputed
// fingerprint disagrees with the recorded one — i.e. corruption).
func loadCheckpoint(dir, name, cfgFP string) (*BenchmarkResult, error) {
	data, err := os.ReadFile(checkpointPath(dir, cfgFP, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, errNoCheckpoint
	}
	if err != nil {
		return nil, err
	}
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("checkpoint %s: unparseable: %w", name, err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("checkpoint %s: version %d, want %d", name, ck.Version, checkpointVersion)
	}
	if ck.ConfigFP != cfgFP {
		return nil, fmt.Errorf("checkpoint %s: written under a different configuration", name)
	}
	if ck.Benchmark.Name != name {
		return nil, fmt.Errorf("checkpoint %s: payload names %q", name, ck.Benchmark.Name)
	}
	r := &BenchmarkResult{
		Name:    ck.Benchmark.Name,
		Primary: ck.Benchmark.Primary,
		Mapping: &mapping.Result{Points: make([]mapping.Point, ck.Benchmark.MappablePoints)},
	}
	for i := range ck.Benchmark.Runs {
		rc := &ck.Benchmark.Runs[i]
		r.Runs = append(r.Runs, &BinaryRun{
			Binary:            &compiler.Binary{Name: rc.Binary},
			TotalInstructions: rc.TotalInstructions,
			TrueCycles:        rc.TrueCycles,
			TrueCPI:           rc.TrueCPI,
			FLI:               rc.FLI.toStats(),
			VLI:               rc.VLI.toStats(),
		})
	}
	if got := r.Fingerprint(); got != ck.Fingerprint {
		return nil, fmt.Errorf("checkpoint %s: fingerprint mismatch (%s != %s), corrupt", name, got, ck.Fingerprint)
	}
	return r, nil
}
