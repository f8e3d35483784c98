// Package pinpoints serializes simulation-region descriptor files, the
// role PinPoints files play in the paper's toolchain (§4): the hand-off
// between simulation-point selection and the CMP$im-style simulator.
//
// A file describes, for one (binary, input) pair, the chosen simulation
// regions with their phases and weights. Regions are delimited either by
// dynamic instruction offsets (per-binary fixed length intervals) or by
// (marker ID, execution count) pairs (cross-binary variable length
// intervals). The format is JSON for inspectability.
package pinpoints

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"xbsim/internal/profile"
)

// Flavor distinguishes the two region-addressing schemes.
type Flavor string

const (
	// FlavorFLI regions are [StartInstr, EndInstr) dynamic instruction
	// ranges in the binary's own counting.
	FlavorFLI Flavor = "fli"
	// FlavorVLI regions are (marker, count) delimited and valid across
	// binaries after marker translation.
	FlavorVLI Flavor = "vli"
)

// Boundary mirrors profile.Boundary for serialization.
type Boundary struct {
	Marker int    `json:"marker"`
	Count  uint64 `json:"count"`
}

// Region is one simulation region.
type Region struct {
	// Phase is the SimPoint phase the region represents.
	Phase int `json:"phase"`
	// Weight is the fraction of dynamic instructions the phase covers in
	// this binary.
	Weight float64 `json:"weight"`
	// Interval is the source interval index in the clustered dataset.
	Interval int `json:"interval"`
	// StartInstr/EndInstr delimit FLI regions.
	StartInstr uint64 `json:"startInstr,omitempty"`
	EndInstr   uint64 `json:"endInstr,omitempty"`
	// Start/End delimit VLI regions; nil for FLI files.
	Start *Boundary `json:"start,omitempty"`
	End   *Boundary `json:"end,omitempty"`
}

// File is a complete region descriptor.
type File struct {
	// Program and Binary identify the compilation ("gcc", "gcc.32u").
	Program string `json:"program"`
	Binary  string `json:"binary"`
	// Input names the profiled input.
	Input string `json:"input"`
	// Flavor is the region addressing scheme.
	Flavor Flavor `json:"flavor"`
	// IntervalSize is the target interval size in instructions.
	IntervalSize uint64 `json:"intervalSize"`
	// Regions are the simulation regions, one per phase.
	Regions []Region `json:"regions"`
}

// Validate checks internal consistency.
func (f *File) Validate() error {
	if f.Program == "" || f.Binary == "" {
		return fmt.Errorf("pinpoints: missing program/binary name")
	}
	switch f.Flavor {
	case FlavorFLI, FlavorVLI:
	default:
		return fmt.Errorf("pinpoints: unknown flavor %q", f.Flavor)
	}
	var total float64
	for i, r := range f.Regions {
		if r.Weight < 0 || r.Weight > 1 {
			return fmt.Errorf("pinpoints: region %d weight %v out of [0,1]", i, r.Weight)
		}
		total += r.Weight
		switch f.Flavor {
		case FlavorFLI:
			if r.EndInstr <= r.StartInstr {
				return fmt.Errorf("pinpoints: region %d has empty instruction range", i)
			}
			if r.Start != nil || r.End != nil {
				return fmt.Errorf("pinpoints: region %d has marker boundaries in an FLI file", i)
			}
		case FlavorVLI:
			if r.Start == nil || r.End == nil {
				return fmt.Errorf("pinpoints: region %d missing marker boundaries", i)
			}
		}
	}
	if len(f.Regions) > 0 && (total < 0.999 || total > 1.001) {
		return fmt.Errorf("pinpoints: region weights sum to %v, want 1", total)
	}
	return nil
}

// FromProfileBoundary converts for serialization.
func FromProfileBoundary(b profile.Boundary) *Boundary {
	return &Boundary{Marker: b.Marker, Count: b.Count}
}

// Write encodes the file as indented JSON.
func (f *File) Write(w io.Writer) error {
	if err := f.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Read decodes and validates a file.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("pinpoints: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Save writes the file to disk.
func (f *File) Save(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := f.Write(out); err != nil {
		return err
	}
	return out.Close()
}

// Load reads a file from disk.
func Load(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Read(in)
}
