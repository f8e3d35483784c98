package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

func TestSuiteExportAndJSON(t *testing.T) {
	cfg := testConfig("swim", "art")
	suite, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	exp := suite.Export()
	if len(exp.Benchmarks) != 2 || len(exp.Figures) != 5 {
		t.Fatalf("export shape: %d benchmarks, %d figures", len(exp.Benchmarks), len(exp.Figures))
	}
	for _, be := range exp.Benchmarks {
		if len(be.Runs) != 4 || len(be.Pairs) != 4 {
			t.Fatalf("%s: %d runs, %d pairs", be.Name, len(be.Runs), len(be.Pairs))
		}
		if be.MappablePoints == 0 {
			t.Fatalf("%s: no mappable points exported", be.Name)
		}
		for _, run := range be.Runs {
			if run.TrueCPI <= 0 || run.FLI.EstCPI <= 0 || run.VLI.EstCPI <= 0 {
				t.Fatalf("%s/%s: non-positive CPIs in export", be.Name, run.Binary)
			}
		}
	}

	var buf bytes.Buffer
	if err := suite.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The document must round-trip through encoding/json (no NaN/Inf).
	var back SuiteExport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("export not valid JSON: %v", err)
	}
	if len(back.Benchmarks) != 2 {
		t.Fatal("round trip lost benchmarks")
	}
	if back.Benchmarks[0].Runs[0].Binary != exp.Benchmarks[0].Runs[0].Binary {
		t.Fatal("round trip changed data")
	}
}
