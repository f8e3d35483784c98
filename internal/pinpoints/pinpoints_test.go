package pinpoints

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xbsim/internal/profile"
)

func validVLI() *File {
	return &File{
		Program:      "gcc",
		Binary:       "gcc.32u",
		Input:        "ref",
		Flavor:       FlavorVLI,
		IntervalSize: 100_000,
		Regions: []Region{
			{Phase: 0, Weight: 0.6, Interval: 3,
				Start: &Boundary{Marker: 5, Count: 10}, End: &Boundary{Marker: 5, Count: 11}},
			{Phase: 1, Weight: 0.4, Interval: 9,
				Start: &Boundary{Marker: 2, Count: 4}, End: &Boundary{Marker: -1, Count: 1}},
		},
	}
}

func validFLI() *File {
	return &File{
		Program:      "gcc",
		Binary:       "gcc.64o",
		Input:        "ref",
		Flavor:       FlavorFLI,
		IntervalSize: 100_000,
		Regions: []Region{
			{Phase: 0, Weight: 1.0, Interval: 0, StartInstr: 0, EndInstr: 100_000},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, f := range []*File{validVLI(), validFLI()} {
		var buf bytes.Buffer
		if err := f.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f, got) {
			t.Fatalf("round trip changed file:\n%+v\n%+v", f, got)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "points.json")
	f := validVLI()
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatal("save/load changed file")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loaded missing file")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*File)
	}{
		{"empty program", func(f *File) { f.Program = "" }},
		{"bad flavor", func(f *File) { f.Flavor = "xxx" }},
		{"weight > 1", func(f *File) { f.Regions[0].Weight = 1.5 }},
		{"weights not normalized", func(f *File) { f.Regions[0].Weight = 0.1 }},
		{"missing boundaries", func(f *File) { f.Regions[0].Start = nil }},
	}
	for _, tc := range cases {
		f := validVLI()
		tc.mutate(f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
	}
	// FLI-specific.
	f := validFLI()
	f.Regions[0].EndInstr = 0
	if err := f.Validate(); err == nil {
		t.Error("empty FLI range validated")
	}
	f = validFLI()
	f.Regions[0].Start = &Boundary{}
	if err := f.Validate(); err == nil {
		t.Error("marker boundary in FLI file validated")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{nope")); err == nil {
		t.Fatal("garbage parsed")
	}
	if _, err := Read(strings.NewReader(`{"program":"p","binary":"b","flavor":"vli","unknown":1}`)); err == nil {
		t.Fatal("unknown fields accepted")
	}
}

func TestBoundaryConversion(t *testing.T) {
	pb := profile.Boundary{Marker: 7, Count: 3}
	if got := FromProfileBoundary(pb); got.Marker != pb.Marker || got.Count != pb.Count {
		t.Fatalf("converted %+v to %+v", pb, got)
	}
}
